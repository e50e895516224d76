package serve

import (
	"strconv"

	"riskbench/internal/premia"
)

// scanProblems is decodeProblems in one pass over the body, straight into
// the problems toProblem builds, for the canonical shape only: JSON
// whitespace; /batch's one key "problems" holding 1..maxBatchRequest
// problems; a problem's keys (asset, model, option, method, params, seed)
// each at most once and spelled exactly; strings with no escape, control
// or non-ASCII byte; params an object of numbers; a seed of decimal
// digits. Bytes after the top-level value are ignored, as by
// json.Decoder. Any other body it refuses, keeping nothing: a book past
// the cap, or a problem past maxProblemParams, is encoding/json's to
// count, which costs no problem built.
func scanProblems(body []byte, batch bool) (problems []*premia.Problem, ok bool) {
	s := scanner{b: body, names: map[string]string{}}
	one := func() bool {
		p, ok := s.problem()
		problems = append(problems, p)
		return ok && len(problems) <= maxBatchRequest
	}
	if batch {
		ok = s.object(func(key []byte) bool {
			return len(problems) == 0 && string(key) == "problems" && s.list('[', ']', one)
		})
	} else {
		ok = one()
	}
	if !ok || len(problems) == 0 {
		return nil, false
	}
	return problems, true
}

// problemKeys are the keys a problem may hold, as bits of a set seen.
var problemKeys = map[string]uint8{"asset": 1, "model": 2, "option": 4, "method": 8, "params": 16, "seed": 32}

type scanner struct {
	b     []byte
	i     int               // the next byte to read
	names map[string]string // one copy of each name read
}

// name returns the string b spells, one copy a body: a book's problems
// repeat their names, which so cost one allocation, not one a problem.
func (s *scanner) name(b []byte) string {
	name, ok := s.names[string(b)]
	if !ok {
		name = string(b)
		s.names[name] = name
	}
	return name
}

// problem scans one problem as toProblem builds it: premia.New, the
// names, the params in order (the last of a repeated one wins), the seed.
func (s *scanner) problem() (*premia.Problem, bool) {
	p := premia.New()
	var seen uint8
	var seed uint64
	ok := s.object(func(key []byte) bool {
		bit := problemKeys[string(key)]
		if bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		switch string(key) {
		case "params":
			count := 0
			return s.object(func(name []byte) bool {
				count++
				num, ok := s.number()
				v, err := strconv.ParseFloat(string(num), 64)
				if ok = ok && err == nil && count <= maxProblemParams; ok {
					p.Set(s.name(name), v)
				}
				return ok
			})
		case "seed":
			num, ok := s.number()
			v, err := strconv.ParseUint(string(num), 10, 64)
			seed = v
			return ok && err == nil
		}
		v, ok := s.str()
		switch name := s.name(v); string(key) {
		case "asset":
			if name != "" {
				p.SetAsset(name)
			}
		case "model":
			p.SetModel(name)
		case "option":
			p.SetOption(name)
		case "method":
			p.SetMethod(name)
		}
		return ok
	})
	if seen&problemKeys["seed"] != 0 {
		p.SetSeed(seed)
	}
	return p, ok
}

// object scans {"key": value, …}, member scanning each value.
func (s *scanner) object(member func(key []byte) bool) bool {
	return s.list('{', '}', func() bool {
		key, ok := s.str()
		return ok && s.eat(':') && member(key)
	})
}

// list scans open, then items separated by commas, then close.
func (s *scanner) list(open, close byte, item func() bool) bool {
	if !s.eat(open) {
		return false
	}
	if s.eat(close) {
		return true
	}
	for item() {
		if s.eat(close) {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
	return false
}

// str scans a string holding no escape, control or non-ASCII byte.
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// number scans -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, as JSON
// spells one: strconv never sees what JSON refuses (+1, .5, 01, 0x1p3, Inf).
func (s *scanner) number() ([]byte, bool) {
	s.ws()
	start := s.i
	s.skip('-')
	if !s.skip('0') && s.digits() == 0 {
		return nil, false
	}
	if s.skip('.') && s.digits() == 0 {
		return nil, false
	}
	if s.skip('e') || s.skip('E') {
		_ = s.skip('+') || s.skip('-')
		if s.digits() == 0 {
			return nil, false
		}
	}
	return s.b[start:s.i], true
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
}

// eat consumes c after any whitespace, reporting whether it was there.
func (s *scanner) eat(c byte) bool {
	s.ws()
	return s.skip(c)
}

// skip consumes c if it is the next byte.
func (s *scanner) skip(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// digits consumes a run of decimal digits, reporting how many.
func (s *scanner) digits() int {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}
