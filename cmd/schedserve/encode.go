package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"time"
	"unicode/utf8"

	"schedcomp/internal/anytime"
	"schedcomp/internal/dag"
	"schedcomp/internal/sched"
	"schedcomp/internal/serve"
)

// Response bodies are built by appending to one byte slice. The bytes
// are exactly what json.Encoder writes for the response structs these
// functions replaced (kept as the reference in encode_test.go): the
// same field order and omitempty rules, strings escaped with
// encoding/json's HTML-safe rules, floats in its ES6-style format, and
// a trailing newline.

// encodeSchedule returns the /schedule body. best is nil for a single
// heuristic; trace is the request's trace JSON, or nil without
// ?trace=1. The buffer is sized for a fixed head, the graph name, the
// trace and about 64 bytes per assignment, so a typical body takes one
// allocation.
func encodeSchedule(name string, g *dag.Graph, s *sched.Schedule, best *anytime.Result, budget time.Duration, trace []byte) []byte {
	dst := make([]byte, 0, 256+len(g.Name())+len(trace)+64*len(s.ByNode))
	dst = append(dst, `{"heuristic":`...)
	dst = appendString(dst, name)
	if gn := g.Name(); gn != "" {
		dst = append(dst, `,"graph":`...)
		dst = appendString(dst, gn)
	}
	dst = append(dst, `,"nodes":`...)
	dst = strconv.AppendInt(dst, int64(g.NumNodes()), 10)
	dst = append(dst, `,"serial_time":`...)
	dst = strconv.AppendInt(dst, g.SerialTime(), 10)
	dst = append(dst, `,"makespan":`...)
	dst = strconv.AppendInt(dst, s.Makespan, 10)
	dst = append(dst, `,"procs":`...)
	dst = strconv.AppendInt(dst, int64(s.NumProcs), 10)
	// Both ratios divide by a positive makespan or processor count, or
	// are 0, so they are finite, the one case json.Encoder refuses.
	dst = append(dst, `,"speedup":`...)
	dst = appendFloat(dst, s.Speedup())
	dst = append(dst, `,"efficiency":`...)
	dst = appendFloat(dst, s.Efficiency())
	dst = append(dst, `,"assignments":`...)
	dst = appendAssignments(dst, s.ByNode)
	if best != nil {
		dst = append(dst, `,"quality":`...)
		dst = appendQuality(dst, best, budget)
	}
	if len(trace) > 0 {
		dst = append(dst, `,"trace":`...)
		dst = append(dst, trace...)
	}
	return append(dst, "}\n"...)
}

// appendAssignments appends the placement array; an empty placement
// is written as [], never null.
func appendAssignments(dst []byte, as []sched.Assignment) []byte {
	dst = append(dst, '[')
	for i, a := range as {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"node":`...)
		dst = strconv.AppendInt(dst, int64(a.Node), 10)
		dst = append(dst, `,"proc":`...)
		dst = strconv.AppendInt(dst, int64(a.Proc), 10)
		dst = append(dst, `,"start":`...)
		dst = strconv.AppendInt(dst, a.Start, 10)
		dst = append(dst, `,"finish":`...)
		dst = strconv.AppendInt(dst, a.Finish, 10)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// appendQuality appends the quality-tier provenance block: the proven
// lower bound and optimality gap, plus how the answer was reached.
func appendQuality(dst []byte, res *anytime.Result, budget time.Duration) []byte {
	dst = append(dst, `{"lower_bound":`...)
	dst = strconv.AppendInt(dst, res.LowerBound, 10)
	dst = append(dst, `,"gap":`...)
	dst = strconv.AppendInt(dst, res.Gap, 10)
	dst = append(dst, `,"proven":`...)
	dst = strconv.AppendBool(dst, res.Proven)
	dst = append(dst, `,"generations":`...)
	dst = strconv.AppendInt(dst, int64(res.Generations), 10)
	dst = append(dst, `,"improvements":`...)
	dst = strconv.AppendInt(dst, int64(res.Improvements), 10)
	dst = append(dst, `,"bnb_states":`...)
	dst = strconv.AppendInt(dst, res.ProbeStates, 10)
	dst = append(dst, `,"seed":`...)
	dst = appendString(dst, res.SeedName)
	dst = append(dst, `,"budget_ms":`...)
	dst = appendFloat(dst, float64(budget)/float64(time.Millisecond))
	dst = append(dst, `,"elapsed_ms":`...)
	dst = appendFloat(dst, float64(res.Elapsed)/float64(time.Millisecond))
	return append(dst, '}')
}

// appendBatchLine appends one /schedule/batch NDJSON line: either a
// schedule or an error, always carrying the item's input index. Every
// other field is omitted when empty or zero.
func appendBatchLine(dst []byte, res serve.Result, name string, g *dag.Graph) []byte {
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(res.Index), 10)
	if res.Err != nil {
		dst = appendOptString(dst, `,"error":`, res.Err.Error())
		dst = appendOptString(dst, `,"cache":`, string(res.Cache))
		return append(dst, "}\n"...)
	}
	s := res.Schedule
	dst = appendOptString(dst, `,"cache":`, string(res.Cache))
	dst = appendOptString(dst, `,"heuristic":`, name)
	dst = appendOptString(dst, `,"graph":`, g.Name())
	dst = appendOptInt(dst, `,"nodes":`, int64(g.NumNodes()))
	dst = appendOptInt(dst, `,"serial_time":`, g.SerialTime())
	dst = appendOptInt(dst, `,"makespan":`, s.Makespan)
	dst = appendOptInt(dst, `,"procs":`, int64(s.NumProcs))
	if len(s.ByNode) > 0 {
		dst = append(dst, `,"assignments":`...)
		dst = appendAssignments(dst, s.ByNode)
	}
	return append(dst, "}\n"...)
}

func appendOptString(dst []byte, key, v string) []byte {
	if v == "" {
		return dst
	}
	return appendString(append(dst, key...), v)
}

func appendOptInt(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// traceJSON renders a trace as json.Encoder embeds a json.RawMessage:
// compacted, then HTML-escaped. obs writes valid JSON, so Compact does
// not fail on a trace; if it did, the body would go without one.
func traceJSON(raw []byte) []byte {
	var compact, out bytes.Buffer
	if err := json.Compact(&compact, raw); err != nil {
		return nil
	}
	json.HTMLEscape(&out, compact.Bytes())
	return out.Bytes()
}

// appendFloat formats f as encoding/json does: the shortest
// representation, in exponent form below 1e-6 and from 1e21 up, with a
// one-digit negative exponent unpadded. f must be finite.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string with encoding/json's escaping:
// quotes, backslashes and control characters; <, > and & for HTML
// safety; U+2028 and U+2029 for JSONP; and each byte of invalid UTF-8
// as \ufffd.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
