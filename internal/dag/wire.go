package dag

import "bytes"

// scanWire is the wire decoder's single-pass path. Every client in this
// repository sends json.Marshal output of lowercase-tagged structs, and
// for that shape encoding/json spends most of its time on reflection
// the shape does not need. scanWire reads exactly this subset:
//
//   - one object whose keys are "name", "nodes" and "edges": lowercase,
//     unescaped, each at most once, in any order;
//   - a name of printable ASCII without '\';
//   - integer literals of at most maxWireDigits digits, or maxIDDigits
//     for "from" and "to";
//   - edge objects whose keys are "from", "to" and "weight", each at
//     most once;
//   - only whitespace after the object.
//
// On that subset json.Unmarshal fills jsonGraph with the same values,
// so the two paths differ only in speed. scanWire reports false for
// any other input, leaving jg partly filled; the caller then decodes a
// fresh jsonGraph with encoding/json, which defines the contract for
// every input.
func scanWire(data []byte, jg *jsonGraph) bool {
	b, ok := expect(data, '{')
	if !ok {
		return false
	}
	if rest, ok := expect(b, '}'); ok {
		return len(skipSpace(rest)) == 0
	}
	var seen uint8
	for {
		var key int
		if key, b, ok = scanKey(b, &graphKeys, &seen); !ok {
			return false
		}
		switch key {
		case 0:
			jg.Name, b, ok = scanName(b)
		case 1:
			jg.Nodes, b, ok = scanNodes(b)
		default:
			jg.Edges, b, ok = scanEdges(b)
		}
		if !ok {
			return false
		}
		if b, ok = expect(b, ','); ok {
			continue
		}
		if b, ok = expect(b, '}'); !ok {
			return false
		}
		return len(skipSpace(b)) == 0
	}
}

// maxWireDigits bounds an integer literal on the fast path: 18 decimal
// digits always fit an int64. maxIDDigits does the same for the int32
// edge endpoints.
const (
	maxWireDigits = 18
	maxIDDigits   = 9
)

// minWireEdge is the shortest edge object carrying all three keys. It
// caps the capacity scanEdges reserves, so a body of braces cannot
// reserve more edges than its length could hold.
const minWireEdge = len(`{"from":0,"to":0,"weight":0}`)

// skipSpace drops leading JSON whitespace.
func skipSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\n' || b[0] == '\r' || b[0] == '\t') {
		b = b[1:]
	}
	return b
}

// expect skips whitespace, consumes c, and skips the whitespace after
// it.
func expect(b []byte, c byte) ([]byte, bool) {
	b = skipSpace(b)
	if len(b) == 0 || b[0] != c {
		return b, false
	}
	return skipSpace(b[1:]), true
}

// cutPrefix returns b without lit if b starts with lit.
func cutPrefix(b []byte, lit string) ([]byte, bool) {
	if len(b) >= len(lit) && string(b[:len(lit)]) == lit {
		return b[len(lit):], true
	}
	return b, false
}

// The keys of a graph object and of an edge object.
var (
	graphKeys = [3]string{"name", "nodes", "edges"}
	edgeKeys  = [3]string{"from", "to", "weight"}
)

// scanKey reads a quoted key and the colon after it, and returns the
// key's index in keys. seen records the keys already read; a repeat
// fails, as does any other key. A key with an escape never matches,
// since no key contains a backslash.
func scanKey(b []byte, keys *[3]string, seen *uint8) (int, []byte, bool) {
	if len(b) == 0 || b[0] != '"' {
		return 0, b, false
	}
	b = b[1:]
	n := bytes.IndexByte(b, '"')
	if n < 0 {
		return 0, b, false
	}
	key, rest := b[:n], b[n+1:]
	for i, k := range keys {
		if string(key) != k {
			continue
		}
		if *seen&(1<<i) != 0 {
			return 0, b, false
		}
		*seen |= 1 << i
		rest, ok := expect(rest, ':')
		return i, rest, ok
	}
	return 0, b, false
}

// scanName reads a string of printable ASCII other than '\'.
func scanName(b []byte) (string, []byte, bool) {
	if len(b) == 0 || b[0] != '"' {
		return "", b, false
	}
	b = b[1:]
	n := bytes.IndexByte(b, '"')
	if n < 0 {
		return "", b, false
	}
	for _, c := range b[:n] {
		if c < ' ' || c > '~' || c == '\\' {
			return "", b, false
		}
	}
	return string(b[:n]), b[n+1:], true
}

// scanInt reads an integer literal of at most maxDigits digits: an
// optional minus sign, then 0 or a digit string without a leading
// zero. A fraction or exponent is left unread, so the caller, which
// expects a delimiter next, rejects it.
func scanInt(b []byte, maxDigits int) (int64, []byte, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 || b[0]-'0' > 9 {
		return 0, b, false
	}
	lead := b[0]
	var v int64
	digits := 0
	for len(b) > 0 && b[0]-'0' <= 9 {
		v = v*10 + int64(b[0]-'0')
		b = b[1:]
		digits++
	}
	if digits > maxDigits || (lead == '0' && digits > 1) {
		return 0, b, false
	}
	if neg {
		v = -v
	}
	return v, b, true
}

// listEnd returns the bytes of b up to its first ']', or all of b. On
// the fast path's subset no ']' occurs inside an array of numbers or
// edge objects, so this is the array's extent; elsewhere it only feeds
// a capacity estimate.
func listEnd(b []byte) []byte {
	if i := bytes.IndexByte(b, ']'); i >= 0 {
		return b[:i]
	}
	return b
}

// scanNodes reads the node weight array, or null.
func scanNodes(b []byte) ([]int64, []byte, bool) {
	if rest, ok := cutPrefix(b, "null"); ok {
		return nil, rest, true
	}
	b, ok := expect(b, '[')
	if !ok {
		return nil, b, false
	}
	// One element per comma, plus one: never more than a valid array of
	// the same length holds, and exact for a valid one.
	nodes := make([]int64, 0, bytes.Count(listEnd(b), []byte{','})+1)
	if b, ok = expect(b, ']'); ok {
		return nodes, b, true
	}
	for {
		var w int64
		if w, b, ok = scanInt(b, maxWireDigits); !ok {
			return nil, b, false
		}
		nodes = append(nodes, w)
		if b, ok = expect(b, ','); ok {
			continue
		}
		b, ok = expect(b, ']')
		return nodes, b, ok
	}
}

// scanEdges reads the edge array, or null.
func scanEdges(b []byte) ([]jsonEdge, []byte, bool) {
	if rest, ok := cutPrefix(b, "null"); ok {
		return nil, rest, true
	}
	b, ok := expect(b, '[')
	if !ok {
		return nil, b, false
	}
	list := listEnd(b)
	edges := make([]jsonEdge, 0, min(bytes.Count(list, []byte{'{'}), len(list)/minWireEdge+1))
	if b, ok = expect(b, ']'); ok {
		return edges, b, true
	}
	for {
		var e jsonEdge
		if e, b, ok = scanEdge(b); !ok {
			return nil, b, false
		}
		edges = append(edges, e)
		if b, ok = expect(b, ','); ok {
			continue
		}
		b, ok = expect(b, ']')
		return edges, b, ok
	}
}

// scanEdge reads one edge object.
func scanEdge(b []byte) (jsonEdge, []byte, bool) {
	var e jsonEdge
	b, ok := expect(b, '{')
	if !ok {
		return e, b, false
	}
	if b, ok = expect(b, '}'); ok {
		return e, b, true
	}
	var seen uint8
	for {
		var key int
		if key, b, ok = scanKey(b, &edgeKeys, &seen); !ok {
			return e, b, false
		}
		digits := maxIDDigits
		if key == 2 {
			digits = maxWireDigits
		}
		var v int64
		if v, b, ok = scanInt(b, digits); !ok {
			return e, b, false
		}
		switch key {
		case 0:
			e.From = int32(v)
		case 1:
			e.To = int32(v)
		default:
			e.Weight = v
		}
		if b, ok = expect(b, ','); ok {
			continue
		}
		b, ok = expect(b, '}')
		return e, b, ok
	}
}
