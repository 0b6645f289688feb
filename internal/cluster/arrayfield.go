package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"unicode/utf8"
)

const maxJSONDepth = 10000 // encoding/json's nesting limit

// arrayField returns the elements of the array that raw's top-level
// object holds under key, as sub-slices of raw: the gateway forwards
// byte ranges of a batch and never needs what is inside them. It is one
// strict pass that accepts and rejects exactly what
//
//	json.NewDecoder(bytes.NewReader(raw)).Decode(&struct{ F []json.RawMessage }{})
//
// does with F named key (FuzzArrayField holds it to that): the first
// top-level value must be an object or null and is validated whole,
// whatever follows it is ignored, the key matches case-insensitively
// with the last duplicate winning, and its value must be an array or
// null.
func arrayField(raw []byte, key string) ([]json.RawMessage, error) {
	i := skipSpace(raw, 0)
	if hasLiteral(raw, i, "null") {
		return nil, nil
	}
	if at(raw, i) != '{' {
		return nil, syntaxError(raw, i)
	}
	var elems []json.RawMessage
	i = skipSpace(raw, i+1)
	for more := at(raw, i) != '}'; more; {
		nameEnd, err := skipString(raw, i)
		if err != nil {
			return nil, err
		}
		match := nameIs(raw[i:nameEnd], key)
		if i, err = expect(raw, nameEnd, ':'); err != nil {
			return nil, err
		}
		switch {
		case !match:
			i, err = skipValue(raw, i, 1)
		case hasLiteral(raw, i, "null"):
			elems, i = nil, i+len("null")
		case at(raw, i) == '[':
			elems, i, err = arrayElems(raw, i, elems[:0])
		default:
			err = fmt.Errorf("%q is not an array", key)
		}
		if err == nil {
			i, more, err = next(raw, i, '}')
		}
		if err != nil {
			return nil, err
		}
	}
	return elems, nil
}

// arrayElems appends to elems the elements of the array opening at
// raw[i], itself an object member, and returns the index past its ']'.
func arrayElems(raw []byte, i int, elems []json.RawMessage) ([]json.RawMessage, int, error) {
	if i = skipSpace(raw, i+1); at(raw, i) == ']' {
		return elems, i + 1, nil
	}
	for more := true; more; {
		end, err := skipValue(raw, i, 2)
		if err != nil {
			return nil, 0, err
		}
		elems = append(elems, raw[i:end:end])
		if i, more, err = next(raw, end, ']'); err != nil {
			return nil, 0, err
		}
	}
	return elems, i, nil
}

// next steps over what follows a member of a container closed by end:
// a comma (more is true, the index that of the next member) or end
// (the index past it).
func next(raw []byte, i int, end byte) (_ int, more bool, _ error) {
	switch i = skipSpace(raw, i); at(raw, i) {
	case ',':
		return skipSpace(raw, i+1), true, nil
	case end:
		return i + 1, false, nil
	}
	return 0, false, syntaxError(raw, i)
}

// skipValue validates the JSON value starting at raw[i], already nested
// inside depth containers, and returns the index past it. It keeps its
// own stack of open containers, so hostile nesting costs a byte per
// level up to the limit and never a stack frame.
func skipValue(raw []byte, i, depth int) (int, error) {
	open := make([]byte, 0, 32) // '{' or '[' per container opened here
	for {
		// raw[i] starts a member of the innermost container, or the value.
		var err error
		if n := len(open); n > 0 && open[n-1] == '{' {
			if i, err = skipString(raw, i); err == nil {
				i, err = expect(raw, i, ':')
			}
			if err != nil {
				return 0, err
			}
		}
		switch c := at(raw, i); {
		case c == '{' || c == '[':
			if depth+len(open) >= maxJSONDepth {
				return 0, errors.New("exceeded max depth")
			}
			if i = skipSpace(raw, i+1); at(raw, i) != c+2 { // '}' is '{'+2, ']' is '['+2
				open = append(open, c)
				continue
			}
			i++
		case c == '"':
			i, err = skipString(raw, i)
		case c == '-' || '0' <= c && c <= '9':
			i, err = skipNumber(raw, i)
		case hasLiteral(raw, i, "true"), hasLiteral(raw, i, "null"):
			i += 4
		case hasLiteral(raw, i, "false"):
			i += 5
		default:
			err = syntaxError(raw, i)
		}
		// A value just ended: close containers until one goes on.
		for more := false; !more && err == nil; {
			if len(open) == 0 {
				return i, nil
			}
			if i, more, err = next(raw, i, open[len(open)-1]+2); !more {
				open = open[:len(open)-1]
			}
		}
		if err != nil {
			return 0, err
		}
	}
}

// expect skips white space, requires c, and skips white space again.
func expect(raw []byte, i int, c byte) (int, error) {
	if i = skipSpace(raw, i); at(raw, i) != c {
		return 0, syntaxError(raw, i)
	}
	return skipSpace(raw, i+1), nil
}

// skipString validates the string opening at raw[i] and returns the
// index past its closing quote.
func skipString(raw []byte, i int) (int, error) {
	if at(raw, i) != '"' {
		return 0, syntaxError(raw, i)
	}
	for i++; i < len(raw); i++ {
		switch c := raw[i]; {
		case c == '"':
			return i + 1, nil
		case c < ' ':
			return 0, syntaxError(raw, i)
		case c == '\\':
			i++
			if e := at(raw, i); e == 'u' {
				for end := i + 4; i < end; {
					i++
					if c := at(raw, i); !('0' <= c && c <= '9' || 'a' <= c|0x20 && c|0x20 <= 'f') {
						return 0, syntaxError(raw, i)
					}
				}
			} else if strings.IndexByte(`"\/bfnrt`, e) < 0 {
				return 0, syntaxError(raw, i)
			}
		}
	}
	return 0, syntaxError(raw, i)
}

// skipNumber validates the number at raw[i] by the JSON grammar and
// returns the index past it; what may follow is the caller's business.
func skipNumber(raw []byte, i int) (int, error) {
	if raw[i] == '-' {
		i++
	}
	ok := true
	if at(raw, i) == '0' {
		i++
	} else {
		i, ok = digits(raw, i, ok)
	}
	if at(raw, i) == '.' {
		i, ok = digits(raw, i+1, ok)
	}
	if at(raw, i)|0x20 == 'e' {
		if i++; at(raw, i) == '+' || at(raw, i) == '-' {
			i++
		}
		i, ok = digits(raw, i, ok)
	}
	if !ok {
		return 0, syntaxError(raw, i)
	}
	return i, nil
}

// digits skips the digits at raw[i]; ok stays true if there was one.
func digits(raw []byte, i int, ok bool) (int, bool) {
	start := i
	for i < len(raw) && '0' <= raw[i] && raw[i] <= '9' {
		i++
	}
	return i, ok && i > start
}

// at is raw[i], or 0 — which no rule accepts — past the end.
func at(raw []byte, i int) byte {
	if i < len(raw) {
		return raw[i]
	}
	return 0
}

func syntaxError(raw []byte, i int) error {
	if i >= len(raw) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q at offset %d", raw[i], i)
}

func skipSpace(raw []byte, i int) int {
	for i < len(raw) && (raw[i] == ' ' || raw[i] == '\n' || raw[i] == '\t' || raw[i] == '\r') {
		i++
	}
	return i
}

func hasLiteral(raw []byte, i int, lit string) bool {
	return len(raw)-i >= len(lit) && string(raw[i:i+len(lit)]) == lit
}

// nameIs reports whether the validated JSON string quoted names key the
// way encoding/json matches an object member to a struct field:
// unescaped, then compared under Unicode case folding.
func nameIs(quoted []byte, key string) bool {
	name := quoted[1 : len(quoted)-1]
	for _, c := range name {
		if c == '\\' || c >= utf8.RuneSelf {
			// Escapes, and the non-ASCII letters that fold to ASCII ones
			// (U+017F to s, U+212A to k): let the library unquote it.
			var s string
			return json.Unmarshal(quoted, &s) == nil && strings.EqualFold(s, key)
		}
	}
	return len(name) == len(key) && strings.EqualFold(string(name), key)
}
