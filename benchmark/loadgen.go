package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// opTimeout fails an operation the server never answers, well inside
// the benchmark's 180 s run cap.
const opTimeout = 30 * time.Second

// wireRequest renders one HTTP/1.1 POST as the exact bytes that go on
// the socket. Requests are rendered during set-up: building JSON bodies
// inside the timed loop cost the client ±15% on book_batch.
func wireRequest(path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, len(body))
	b.Write(body)
	return b.Bytes()
}

// client is one keep-alive HTTP/1.1 connection carrying one request at
// a time. It dials lazily and redials after a failure.
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	body bytes.Buffer // reused across responses
}

// do writes a pre-rendered request and reads the whole response. The
// returned body is valid until the next call.
func (k *client) do(wire []byte, timeout time.Duration) (status int, body []byte, err error) {
	if k.conn == nil {
		conn, err := net.DialTimeout("tcp", k.addr, timeout)
		if err != nil {
			return 0, nil, err
		}
		k.conn, k.br = conn, bufio.NewReaderSize(conn, 64<<10)
	}
	defer func() {
		if err != nil {
			k.close() // the stream is in an unknown state: start afresh
		}
	}()
	if err := k.conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return 0, nil, err
	}
	if _, err := k.conn.Write(wire); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(k.br, nil)
	if err != nil {
		return 0, nil, err
	}
	k.body.Reset()
	_, err = k.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	if resp.Close {
		k.close()
	}
	return resp.StatusCode, k.body.Bytes(), nil
}

func (k *client) close() {
	if k.conn != nil {
		k.conn.Close()
		k.conn, k.br = nil, nil
	}
}

// phase describes one load phase against a server.
type phase struct {
	addr     string
	requests [][]byte // pre-rendered; operation i sends requests[i%len]
	conns    int
	// An open loop sends operation i at start + i/rate whatever the
	// server does, for exactly count operations. A closed loop (rate 0)
	// sends each connection's next operation when its previous one
	// completes, for count operations or — when count is 0 — until
	// `duration` has elapsed.
	rate     float64
	count    int
	duration time.Duration
	// accept is the cheap in-loop check of a 200 response; nil accepts.
	accept func(body []byte) bool
	// keep selects the operations whose response bodies are retained
	// for the checks that run after the phase. keepLast also retains
	// the highest-numbered successful one, which a time-bounded loop
	// cannot name in advance.
	keep     func(i int) bool
	keepLast bool
}

// opResult is one operation's outcome.
type opResult struct {
	latency float64 // seconds from due time (open) or send (closed) to the last response byte
	late    float64 // open loop: seconds the send ran behind its due time
	doneAt  float64 // seconds from phase start to the last response byte
	failed  bool
	reason  string // first line of what went wrong
}

// phaseResult is what a phase measured.
type phaseResult struct {
	began time.Time      // opResult offsets count from here
	ops   []opResult     // by operation index
	kept  map[int][]byte // retained response bodies
	wall  float64        // seconds, phase start to last completion
}

// run drives the phase to completion, or until ctx is cancelled.
func (p phase) run(ctx context.Context) phaseResult {
	var (
		next  atomic.Int64
		mu    sync.Mutex // guards res.kept and, for a time-bounded loop, res.ops
		wg    sync.WaitGroup
		start = time.Now()
		res   = phaseResult{began: start, kept: map[int][]byte{}}
		last  = -1
		lastB []byte
	)
	if p.count > 0 {
		res.ops = make([]opResult, p.count)
	}
	record := func(i int, r opResult) {
		if p.count > 0 {
			res.ops[i] = r // each index has one writer
			return
		}
		mu.Lock()
		for len(res.ops) <= i {
			res.ops = append(res.ops, opResult{})
		}
		res.ops[i] = r
		mu.Unlock()
	}
	for c := 0; c < p.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := &client{addr: p.addr}
			defer k.close()
			for {
				i := int(next.Add(1)) - 1
				if ctx.Err() != nil || (p.count > 0 && i >= p.count) {
					return
				}
				if p.count == 0 && time.Since(start) >= p.duration {
					return
				}
				var r opResult
				begin := time.Now()
				if p.rate > 0 {
					// Time from when the operation was due, not from when it
					// was sent: a stall then charges every operation it
					// delayed, as the users behind them would be.
					due := start.Add(time.Duration(float64(i) / p.rate * float64(time.Second)))
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
					r.late = time.Since(due).Seconds()
					begin = due
				}
				status, body, err := k.do(p.requests[i%len(p.requests)], opTimeout)
				end := time.Now()
				r.latency = end.Sub(begin).Seconds()
				r.doneAt = end.Sub(start).Seconds()
				switch {
				case err != nil:
					r.failed, r.reason = true, err.Error()
				case status != http.StatusOK:
					r.failed, r.reason = true, fmt.Sprintf("status %d: %.200s", status, body)
				case p.accept != nil && !p.accept(body):
					r.failed, r.reason = true, fmt.Sprintf("unexpected body: %.200s", body)
				case p.keep != nil && p.keep(i):
					cp := append([]byte(nil), body...)
					mu.Lock()
					res.kept[i] = cp
					mu.Unlock()
				case p.keepLast:
					mu.Lock()
					if i > last {
						last, lastB = i, append(lastB[:0], body...)
					}
					mu.Unlock()
				}
				record(i, r)
			}
		}()
	}
	wg.Wait()
	if last >= 0 {
		res.kept[last] = lastB
	}
	for _, r := range res.ops {
		res.wall = math.Max(res.wall, r.doneAt)
	}
	return res
}
