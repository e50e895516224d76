package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"riskbench/internal/premia"
	"riskbench/internal/risk"
)

// keyPrice prices a problem at a number read off its content key, so two
// problems get the same price exactly when they would compute the same
// thing, and nothing is computed.
func keyPrice(_ context.Context, problems []*premia.Problem) ([]risk.PriceOutcome, error) {
	out := make([]risk.PriceOutcome, len(problems))
	for i, p := range problems {
		v, _ := strconv.ParseUint(p.ContentKey()[:13], 16, 64)
		out[i].Result = premia.Result{Price: float64(v), Work: 1}
	}
	return out, nil
}

// parentDecode decodes body as the server did before it had a scanner:
// streamed through encoding/json into problemJSON, every problem of a
// book built, then toProblem — once parentParams has found no problem
// past maxProblemParams.
func parentDecode(body []byte, batch bool) ([]*premia.Problem, error) {
	if err := parentParams(body, batch); err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	if !batch {
		var pj problemJSON
		if err := dec.Decode(&pj); err != nil {
			return nil, err
		}
		return []*premia.Problem{pj.toProblem()}, nil
	}
	var book struct {
		Problems []problemJSON `json:"problems"`
	}
	if err := dec.Decode(&book); err != nil {
		return nil, err
	}
	problems := make([]*premia.Problem, len(book.Problems))
	for i, pj := range book.Problems {
		problems[i] = pj.toProblem()
	}
	return problems, nil
}

// tokenCount counts the members of the objects decoded into it, the way
// keyCount does, but through json.Decoder's tokens.
type tokenCount int

func (c *tokenCount) UnmarshalJSON(b []byte) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	if tok, _ := dec.Token(); tok != json.Delim('{') {
		return nil
	}
	for ; dec.More(); *c++ {
		var value json.RawMessage
		_, _ = dec.Token()
		_ = dec.Decode(&value)
	}
	return nil
}

// parentParams refuses the first problem of body, of a book's first
// maxBatchRequest, whose parameters tokenCount counts past
// maxProblemParams. Any error of the count is parentDecode's to report.
func parentParams(body []byte, batch bool) error {
	type counted struct {
		Params tokenCount `json:"params"`
	}
	var book struct {
		Problems []counted `json:"problems"`
	}
	if batch {
		_ = json.NewDecoder(bytes.NewReader(body)).Decode(&book)
	} else {
		book.Problems = make([]counted, 1)
		_ = json.NewDecoder(bytes.NewReader(body)).Decode(&book.Problems[0])
	}
	for i, p := range book.Problems[:min(len(book.Problems), maxBatchRequest)] {
		if p.Params > maxProblemParams {
			return fmt.Errorf("problem %d has %d parameters, more than %d", i, p.Params, maxProblemParams)
		}
	}
	return nil
}

// parentAnswer answers body as the server did before it had a scanner:
// parentDecode, then the same pricing and answer.
func parentAnswer(s *Server, path, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	problems, err := parentDecode([]byte(body), path == "/batch")
	switch {
	case err != nil:
		badRequest(w, fmt.Errorf("bad request body: %v", err))
	case path == "/price":
		s.answerPrice(w, r, problems[0])
	default:
		s.answerBatch(w, r, problems, len(problems))
	}
	return w
}

// problemCases are problem objects at the scanner's edges, keyed by what
// each tries. The scanner takes some and hands the rest to encoding/json.
var problemCases = map[string]string{
	"canonical":         cfBody(100),
	"folded key":        `{"Model":"BlackScholes1dim","option":"CallEuro","method":"CF_Call","params":{"S0":100,"r":0.04,"sigma":0.2,"K":100,"T":1}}`,
	"escaped name":      `{"model":"BlackScholes1dim","option":"Call\u0045uro","method":"CF_Call","params":{"S0":100,"r":0.04,"sigma":0.2,"K":100,"T":1}}`,
	"unknown field":     `{"model":"BlackScholes1dim","option":"CallEuro","method":"CF_Call","book":"x","params":{"S0":100,"r":0.04,"sigma":0.2,"K":100,"T":1}}`,
	"empty asset":       `{"asset":"","model":"BlackScholes1dim","option":"CallEuro","method":"CF_Call","params":{"S0":100,"r":0.04,"sigma":0.2,"K":100,"T":1}}`,
	"rate asset":        `{"asset":"rate","model":"BlackScholes1dim","option":"CallEuro","method":"CF_Call","params":{"S0":100,"r":0.04,"sigma":0.2,"K":100,"T":1}}`,
	"null params":       `{"model":"BlackScholes1dim","option":"CallEuro","method":"CF_Call","params":null}`,
	"empty params":      `{"model":"BlackScholes1dim","option":"CallEuro","method":"CF_Call","params":{}}`,
	"no params":         `{"model":"BlackScholes1dim","option":"CallEuro","method":"CF_Call"}`,
	"repeated K":        `{"model":"BlackScholes1dim","option":"CallEuro","method":"CF_Call","params":{"K":90,"S0":100,"r":0.04,"sigma":0.2,"K":110,"T":1}}`,
	"repeated model":    `{"model":"Heston1dim","model":"BlackScholes1dim","option":"CallEuro","method":"CF_Call","params":{"S0":100,"r":0.04,"sigma":0.2,"K":100,"T":1}}`,
	"1e400":             `{"model":"BlackScholes1dim","option":"CallEuro","method":"CF_Call","params":{"S0":100,"r":0.04,"sigma":0.2,"K":1e400,"T":1}}`,
	"JSON numbers":      `{"model":"BlackScholes1dim","option":"CallEuro","method":"CF_Call","params":{"S0":1E+2,"r":4e-2,"sigma":0.20,"K":-0,"T":1.0e0}}`,
	"plus sign":         `{"model":"BlackScholes1dim","option":"CallEuro","method":"CF_Call","params":{"S0":+100}}`,
	"leading dot":       `{"model":"BlackScholes1dim","option":"CallEuro","method":"CF_Call","params":{"S0":.5}}`,
	"leading zero":      `{"model":"BlackScholes1dim","option":"CallEuro","method":"CF_Call","params":{"S0":0100}}`,
	"string value":      `{"model":"BlackScholes1dim","option":"CallEuro","method":"CF_Call","params":{"S0":"100"}}`,
	"seed":              `{"model":"BlackScholes1dim","option":"CallEuro","method":"CF_Call","params":{"S0":100,"r":0.04,"sigma":0.2,"K":100,"T":1,"seed":3},"seed":18446744073709551615}`,
	"seed first":        `{"model":"BlackScholes1dim","option":"CallEuro","method":"CF_Call","seed":5,"params":{"S0":100,"r":0.04,"sigma":0.2,"K":100,"T":1,"seed":3,"seedhi":1}}`,
	"seed 0":            `{"model":"BlackScholes1dim","option":"CallEuro","method":"CF_Call","seed":0,"params":{"S0":100,"r":0.04,"sigma":0.2,"K":100,"T":1}}`,
	"seed 1e3":          `{"model":"BlackScholes1dim","option":"CallEuro","method":"CF_Call","params":{"S0":100,"r":0.04,"sigma":0.2,"K":100,"T":1},"seed":1e3}`,
	"seed -1":           `{"model":"BlackScholes1dim","option":"CallEuro","method":"CF_Call","params":{"S0":100,"r":0.04,"sigma":0.2,"K":100,"T":1},"seed":-1}`,
	"seed 2^64":         `{"model":"BlackScholes1dim","option":"CallEuro","method":"CF_Call","seed":18446744073709551616}`,
	"non-ASCII":         `{"model":"BlackScholes1dim","option":"CallEuro","method":"CF_Callé","params":{"S0":100,"r":0.04,"sigma":0.2,"K":100,"T":1}}`,
	"trailing garbage":  cfBody(100) + `}{"model"`,
	"tabs and newlines": "{\n\t\"model\" : \"BlackScholes1dim\",\r\n\t\"option\":\"CallEuro\" ,\"method\":\"CF_Call\",\n\t\"params\":{ \"S0\":100 ,\"r\":0.04,\"sigma\":0.2,\"K\":100,\"T\":1 }\n}",
	"control byte":      "{\"model\":\"BlackScholes1dim\x01\"}",
	"null":              `null`,
	"empty object":      `{}`,
	"trailing comma":    `{"model":"BlackScholes1dim",}`,
	"truncated":         `{"model":"BlackScholes1dim","option":"CallEuro","method":"CF_Call","params":{"S0":100`,
}

// bookCases are /batch bodies whose edges are the book's own.
var bookCases = map[string]string{
	"empty problems":    `{"problems":[]}`,
	"null problems":     `{"problems":null}`,
	"no problems":       `{}`,
	"null problem":      `{"problems":[null]}`,
	"folded problems":   `{"Problems":[` + cfBody(100) + `]}`,
	"repeated problems": `{"problems":[` + cfBody(100) + `],"problems":[` + cfBody(101) + `]}`,
	"second key":        `{"problems":[` + cfBody(100) + `],"book":"x"}`,
	"duplicates":        batchBody(cfBody(100), cfBody(102), cfBody(100)),
	"trailing garbage":  batchBody(cfBody(100)) + ` ]`,
}

// TestDecodeMatchesEncodingJSON: on each of the scanner's edge cases, as
// /price and /batch bodies, the server answers — status and body — as it
// answered when encoding/json decoded every body.
func TestDecodeMatchesEncodingJSON(t *testing.T) {
	served := New(Config{Price: keyPrice})
	defer served.Close()
	parent := New(Config{Price: keyPrice})
	defer parent.Close()
	bodies := map[string]string{}
	for name, body := range problemCases {
		bodies[name] = body
		bodies[name+" in a book"] = batchBody(cfBody(99), body)
	}
	for name, body := range bookCases {
		bodies[name] = body
	}
	for name, body := range bodies {
		for _, path := range []string{"/price", "/batch"} {
			got, want := postJSON(served, path, body), parentAnswer(parent, path, body)
			if got.Code != want.Code || got.Body.String() != want.Body.String() {
				t.Errorf("%s to %s: answered %d %s, want %d %s", name, path, got.Code, got.Body, want.Code, want.Body)
			}
		}
	}
}

// TestScannerTakesTheCanonicalShape: the bodies clients send — the
// benchmark's book, the test helpers' — never reach encoding/json, and
// the problems of a book share one copy of each name they repeat.
func TestScannerTakesTheCanonicalShape(t *testing.T) {
	for name, body := range map[string]string{
		"cfBody":            cfBody(100),
		"batchBody":         batchBody(cfBody(90), cfBody(91)),
		"book_batch":        string(bookBody(4, 80)),
		"tabs and newlines": problemCases["tabs and newlines"],
		"seed":              problemCases["seed"],
	} {
		batch := strings.HasPrefix(body, `{"problems"`)
		if _, ok := scanProblems([]byte(body), batch); !ok {
			t.Errorf("%s: the scanner bails on %s", name, body)
		}
	}
	book, _ := scanProblems(bookBody(3, 80), true)
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
	for _, p := range book[1:] {
		if !same(p.Model, book[0].Model) || !same(p.Option, book[0].Option) || !same(p.Method, book[0].Method) {
			t.Errorf("%s/%s/%s is a copy of the first problem's names", p.Model, p.Option, p.Method)
		}
		for k := range p.Params {
			for k0 := range book[0].Params {
				if k == k0 && !same(k, k0) {
					t.Errorf("parameter %q is a copy of the first problem's", k)
				}
			}
		}
	}
}

// allocated reports how many bytes f allocates, all goroutines counted.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLongBookIsCountedNotBuilt: a /batch book past the cap is refused
// as encoding/json refused it, without a problem built past the cap. A
// 4 MiB body of {} problems once cost 651 MB, 163 bytes a body byte.
func TestLongBookIsCountedNotBuilt(t *testing.T) {
	s := New(Config{Price: keyPrice})
	defer s.Close()
	// Just past the cap, each answer is the one encoding/json gave:
	// clean, with a type error in the first problem, off the scanner's
	// shape.
	for _, first := range []string{`{}`, `{"model":1}`, `{"x":0}`} {
		body := `{"problems":[` + first + strings.Repeat(",{}", maxBatchRequest) + `]}`
		got, want := postJSON(s, "/batch", body), parentAnswer(s, "/batch", body)
		if got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Errorf("%s and %d {}: answered %d %s, want %d %s", first, maxBatchRequest, got.Code, got.Body, want.Code, want.Body)
		}
	}
	// 2 MiB of problems, starting on the scanner's shape and off it.
	const long = 2 << 20 / 3
	for _, first := range []string{`{}`, `{"x":0}`} {
		body := `{"problems":[` + first + strings.Repeat(",{}", long) + `]}`
		var w *httptest.ResponseRecorder
		bytes := allocated(func() { w = postJSON(s, "/batch", body) })
		if want := fmt.Sprintf("got %d", long+1); w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), want) {
			t.Errorf("%s and %d {}: answered %d %s, want a 400 saying %s", first, long, w.Code, w.Body, want)
		}
		if per := float64(bytes) / float64(len(body)); per > 16 {
			t.Errorf("%s and %d {}: refusing %d bytes allocated %d, %.1f a byte, budget is 16", first, long, len(body), bytes, per)
		}
	}
}

// manyParams is a CF_Call problem spelling n parameters: the five it
// prices on, then p5, p6, … at 0. extra, a member such as `"book":"x",`,
// takes it off the scanner's shape.
func manyParams(n int, extra string) string {
	var b strings.Builder
	b.WriteString(`{"model":"BlackScholes1dim","option":"CallEuro","method":"CF_Call",` + extra + `"params":{"S0":100,"r":0.04,"sigma":0.2,"K":100,"T":1`)
	for i := 5; i < n; i++ {
		fmt.Fprintf(&b, `,"p%d":0`, i)
	}
	b.WriteString("}}")
	return b.String()
}

// TestProblemParamsCap: a problem of maxProblemParams parameters prices,
// one more is a 400 naming the problem and its count, on each reader:
// the scanner, encoding/json's fallback, a book and a /risk inline book.
func TestProblemParamsCap(t *testing.T) {
	s := New(Config{Price: keyPrice})
	defer s.Close()
	for _, extra := range []string{"", `"book":"x",`} {
		for _, path := range []string{"/price", "/batch"} {
			body, at := func(p string) string { return p }, 0
			if path == "/batch" {
				body, at = func(p string) string { return batchBody(cfBody(100), p) }, 1
			}
			if w := postJSON(s, path, body(manyParams(maxProblemParams, extra))); w.Code != http.StatusOK {
				t.Errorf("%s %q, %d parameters: %d %s, want 200", path, extra, maxProblemParams, w.Code, w.Body)
			}
			want := fmt.Sprintf("problem %d has %d parameters, more than %d", at, maxProblemParams+1, maxProblemParams)
			if w := postJSON(s, path, body(manyParams(maxProblemParams+1, extra))); w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), want) {
				t.Errorf("%s %q, %d parameters: %d %s, want 400 saying %s", path, extra, maxProblemParams+1, w.Code, w.Body, want)
			}
		}
	}
	rs := riskServer()
	defer rs.Close()
	inline := func(n int) string {
		return `{"portfolio":{"problems":[` + cfBody(100) + `,` + manyParams(n, "") + `]},"scenarios":{"n":8}}`
	}
	if w := postJSON(rs, "/risk/report", inline(maxProblemParams)); w.Code != http.StatusOK {
		t.Errorf("/risk/report, %d parameters: %d %s, want 200", maxProblemParams, w.Code, w.Body)
	}
	want := fmt.Sprintf(`{"error":"problem 1 has %d parameters, more than %d"}`, maxProblemParams+1, maxProblemParams)
	if w := postJSON(rs, "/risk/report", inline(maxProblemParams+1)); w.Code != http.StatusBadRequest || strings.TrimSpace(w.Body.String()) != want {
		t.Errorf("/risk/report, %d parameters: %d %s, want 400 %s", maxProblemParams+1, w.Code, w.Body, want)
	}
}

// TestManyParamsAreCountedNotBuilt: a 2 MiB body of one problem with
// some 170 000 parameter names is refused without their map built — on
// the scanner's shape, off it, and as a /risk inline book. Such a /price
// body once cost 110 MB, 52 bytes a body byte, and was answered 200.
func TestManyParamsAreCountedNotBuilt(t *testing.T) {
	s := New(Config{Price: keyPrice})
	defer s.Close()
	const n = 2 << 20 / 12 // `,"p123456":0` is 12 bytes
	for _, tc := range []struct{ path, body string }{
		{"/price", manyParams(n, "")},
		{"/price", manyParams(n, `"book":"x",`)},
		{"/risk/report", `{"portfolio":{"problems":[` + manyParams(n, "") + `]}}`},
	} {
		var w *httptest.ResponseRecorder
		bytes := allocated(func() { w = postJSON(s, tc.path, tc.body) })
		if want := fmt.Sprintf("problem 0 has %d parameters", n); w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), want) {
			t.Errorf("%s of %d bytes: answered %d %s, want a 400 saying %s", tc.path, len(tc.body), w.Code, w.Body, want)
		}
		if per := float64(bytes) / float64(len(tc.body)); per > 16 {
			t.Errorf("%s: refusing %d bytes allocated %d, %.1f a byte, budget is 16", tc.path, len(tc.body), bytes, per)
		}
	}
}

// TestContentLengthIsAClaim: a body that claims maxBodyBytes and sends a
// problem is read without a buffer of the length it claims.
func TestContentLengthIsAClaim(t *testing.T) {
	s := New(Config{Price: keyPrice})
	defer s.Close()
	for path, body := range map[string]string{"/price": cfBody(100), "/batch": batchBody(cfBody(100))} {
		var w *httptest.ResponseRecorder
		bytes := allocated(func() {
			r := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
			r.ContentLength = maxBodyBytes
			w = httptest.NewRecorder()
			s.Handler().ServeHTTP(w, r)
		})
		if w.Code != http.StatusOK {
			t.Errorf("%s: %d %s, want 200", path, w.Code, w.Body)
		}
		if bytes > maxBodyBytes/16 {
			t.Errorf("%s claiming %d bytes, sending %d: allocated %d, budget is %d", path, maxBodyBytes, len(body), bytes, maxBodyBytes/16)
		}
	}
}

// spaces reads as an endless run of blanks and counts what is read.
type spaces struct{ n int }

// blanks is what spaces copies out on each read.
var blanks = []byte(strings.Repeat(" ", 64<<10))

func (r *spaces) Read(p []byte) (int, error) {
	n := copy(p, blanks)
	r.n += n
	return n, nil
}

// TestBodyLimit: a body one byte longer than maxBodyBytes is a JSON 413,
// whether its Content-Length declares the length or not, and one a byte
// shorter still prices.
func TestBodyLimit(t *testing.T) {
	s := New(Config{Price: keyPrice})
	defer s.Close()
	post := func(path, value string, size int64, declared bool) *httptest.ResponseRecorder {
		body := io.MultiReader(strings.NewReader(value), io.LimitReader(&spaces{}, size-int64(len(value))))
		r := httptest.NewRequest(http.MethodPost, path, body)
		r.ContentLength = -1
		if declared {
			r.ContentLength = size
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		return w
	}
	for path, value := range map[string]string{"/price": cfBody(100), "/batch": batchBody(cfBody(100))} {
		if w := post(path, value, maxBodyBytes-1, true); w.Code != http.StatusOK {
			t.Errorf("%s of %d bytes: %d %s, want 200", path, maxBodyBytes-1, w.Code, w.Body)
		}
		if w := post(path, value, maxBodyBytes+1, true); w.Code != http.StatusRequestEntityTooLarge || !json.Valid(w.Body.Bytes()) {
			t.Errorf("%s of %d bytes: %d %s, want a JSON 413", path, maxBodyBytes+1, w.Code, w.Body)
		}
	}
	// A body that does not declare its length is cut off by reading it.
	if w := post("/risk/report", `{}`, maxBodyBytes+1, false); w.Code != http.StatusRequestEntityTooLarge || !json.Valid(w.Body.Bytes()) {
		t.Errorf("/risk/report of %d undeclared bytes: %d %s, want a JSON 413", maxBodyBytes+1, w.Code, w.Body)
	}
}

// TestDeclaredLengthIsRefusedUnread: a body whose Content-Length is past
// maxBodyBytes is a JSON 413 on every POST endpoint, answered before a
// byte of it is read.
func TestDeclaredLengthIsRefusedUnread(t *testing.T) {
	s := New(Config{Price: keyPrice})
	defer s.Close()
	for _, path := range []string{"/price", "/batch", "/risk/report", "/risk/watch"} {
		body := &spaces{}
		r := httptest.NewRequest(http.MethodPost, path, body)
		r.ContentLength = maxBodyBytes + 1
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		if w.Code != http.StatusRequestEntityTooLarge || !json.Valid(w.Body.Bytes()) || body.n != 0 {
			t.Errorf("%s declaring %d bytes: %d %s after reading %d bytes, want a JSON 413 before reading any", path, maxBodyBytes+1, w.Code, w.Body, body.n)
		}
	}
}

// riskBodies are /risk request bodies within the inline-book cap, at the
// edges of counting the book before decoding it.
var riskBodies = map[string]string{
	"inline":             `{"portfolio":{"problems":[` + cfBody(100) + `,` + cfBody(101) + `]},"method":"full"}`,
	"type error":         `{"portfolio":{"problems":[{"model":1}]}}`,
	"problems a number":  `{"portfolio":{"problems":5}}`,
	"numbers":            `{"portfolio":{"problems":[1,2]}}`,
	"null portfolio":     `{"portfolio":null}`,
	"folded keys":        `{"Portfolio":{"PROBLEMS":[{}]}}`,
	"repeated portfolio": `{"portfolio":{"problems":[{},{}]},"portfolio":{"name":"toy"}}`,
	"name and problems":  `{"portfolio":{"name":"toy","problems":[{}]}}`,
	"other type error":   `{"portfolio":{"problems":[{}]},"alphas":"x"}`,
	"watch type error":   `{"portfolio":{"problems":[{}]},"limits":{"var":"x"},"rounds":2}`,
	"trailing garbage":   `{"method":"full"} }{`,
	"truncated":          `{"portfolio":{"problems":[{}`,
	"empty":              ``,
	"at the cap":         `{"portfolio":{"problems":[{}` + strings.Repeat(`,{}`, maxRiskClaims-1) + `]}}`,
	"type error at cap":  `{"portfolio":{"problems":[{}` + strings.Repeat(`,{}`, maxRiskClaims-2) + `,{"seed":"x"}]}}`,
}

// riskDecodeParity checks that decodeRiskRequest reads body into a Q as
// the streaming encoding/json decode the /risk endpoints once used did:
// the same request, or the same refusal.
func riskDecodeParity[Q any](t *testing.T, name, body string) {
	var got, want Q
	w := httptest.NewRecorder()
	ok := decodeRiskRequest(w, httptest.NewRequest(http.MethodPost, "/risk/report", strings.NewReader(body)), &got)
	if err := json.NewDecoder(strings.NewReader(body)).Decode(&want); err != nil {
		refused := httptest.NewRecorder()
		badRequest(refused, fmt.Errorf("bad request body: %v", err))
		if ok || w.Code != refused.Code || w.Body.String() != refused.Body.String() {
			t.Errorf("%s into %T: answered %v %d %s, want %d %s", name, got, ok, w.Code, w.Body, refused.Code, refused.Body)
		}
		return
	}
	if !ok || !reflect.DeepEqual(got, want) {
		t.Errorf("%s into %T: decoded %v %+v (%d %s), want %+v", name, got, ok, got, w.Code, w.Body, want)
	}
}

// TestRiskDecodeMatchesEncodingJSON: within the inline-book cap, counting
// the book first changes nothing a /risk body decodes into or is refused
// with.
func TestRiskDecodeMatchesEncodingJSON(t *testing.T) {
	for name, body := range riskBodies {
		riskDecodeParity[riskReportRequest](t, name, body)
		riskDecodeParity[riskWatchRequest](t, name, body)
	}
}

// TestLongInlineBookIsCountedNotBuilt: a /risk inline book past
// maxRiskClaims is refused with the cap's 400, without its problems
// decoded. A 2 MiB body of {} problems once cost 342 MB, 163 bytes a body
// byte.
func TestLongInlineBookIsCountedNotBuilt(t *testing.T) {
	s := New(Config{Price: keyPrice})
	defer s.Close()
	for _, long := range []int{maxRiskClaims + 1, 2 << 20 / 3} {
		body := `{"portfolio":{"problems":[{}` + strings.Repeat(",{}", long-1) + `]}}`
		for _, path := range []string{"/risk/report", "/risk/watch"} {
			var w *httptest.ResponseRecorder
			bytes := allocated(func() { w = postJSON(s, path, body) })
			if want := fmt.Sprintf(`{"error":"want at most %d inline problems, got %d"}`, maxRiskClaims, long); w.Code != http.StatusBadRequest || strings.TrimSpace(w.Body.String()) != want {
				t.Errorf("%s, %d {}: answered %d %s, want 400 %s", path, long, w.Code, w.Body, want)
			}
			if per := float64(bytes) / float64(len(body)); per > 16 {
				t.Errorf("%s, %d {}: refusing %d bytes allocated %d, %.1f a byte, budget is 16", path, long, len(body), bytes, per)
			}
		}
	}
}

// sameProblems reports whether two decodes built the same problems:
// reflect.DeepEqual, and every parameter to the bit (DeepEqual calls 0
// and -0 equal, ContentKey does not). JSON cannot carry a NaN, so
// neither decode can build one.
func sameProblems(a, b []*premia.Problem) bool {
	if !reflect.DeepEqual(a, b) {
		return false
	}
	for i := range a {
		for k, v := range a[i].Params {
			if math.Float64bits(v) != math.Float64bits(b[i].Params[k]) {
				return false
			}
		}
	}
	return true
}

// FuzzDecodeProblems holds both readers of a /price or /batch body to
// the decode they replace, parentDecode: whatever body the scanner
// accepts, parentDecode accepts too and builds the same problems, to the
// bit; on every body, decodeProblems — the scanner's fallback — builds
// the same problems or fails with the same error.
func FuzzDecodeProblems(f *testing.F) {
	for _, body := range serveBodySeeds() {
		f.Add(body)
	}
	for _, body := range problemCases {
		f.Add([]byte(body))
		f.Add([]byte(batchBody(body)))
	}
	for _, body := range bookCases {
		f.Add([]byte(body))
	}
	f.Add(bookBody(3, 80))
	f.Add([]byte(manyParams(maxProblemParams+1, "")))
	f.Add([]byte("{\"problems\":[\n\t" + cfBody(100) + ",\n\t" + cfBody(101) + "\n]}\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, batch := range []bool{false, true} {
			want, werr := parentDecode(body, batch)
			if got, ok := scanProblems(body, batch); ok && (werr != nil || !sameProblems(got, want)) {
				t.Fatalf("batch %v: the scanner built %v, encoding/json %v (%v): %q", batch, got, want, werr, body)
			}
			got, n, err := decodeProblems(body, batch)
			if fmt.Sprint(err) != fmt.Sprint(werr) || err == nil && (n != len(want) || !sameProblems(got, want)) {
				t.Fatalf("batch %v: the fallback built %d %v (%v), encoding/json %v (%v): %q", batch, n, got, err, want, werr, body)
			}
		}
	})
}
