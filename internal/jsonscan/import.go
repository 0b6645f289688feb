package jsonscan

import (
	"bytes"
	"strconv"
)

// Visit is one visit on the export/import wire; server.WireVisit names
// it.
type Visit struct {
	User int    `json:"user"`
	Time int64  `json:"t"`
	Host string `json:"h"`
}

// Import decodes raw as
//
//	json.NewDecoder(bytes.NewReader(raw)).Decode(&struct {
//		Reset  []int   `json:"reset"`
//		Visits []Visit `json:"visits"`
//	}{})
//
// does, for the bodies json.Marshal writes of that shape: ok is false,
// and the caller must ask the library, for every body the library
// rejects and for some it accepts. The pass takes one object, whatever
// follows it ignored, whose members are reset and visits, each at most
// once and matched as the library matches them; reset holds integers,
// and each visit is an object whose members are named exactly user, t
// and h, each at most once, a missing one zero. An integer has no
// fraction or exponent and fits its field; a host is a string. null,
// another type, an unknown or repeated member and any syntax error
// decline. [] is an empty slice, not nil.
//
// The visits are one allocation. A host without escapes or non-ASCII
// bytes is a substring of one string(raw); the rest are unquoted by
// encoding/json itself.
func Import(raw []byte) (reset []int, visits []Visit, ok bool) {
	var body string
	i := skipSpace(raw, 0)
	if at(raw, i) != '{' {
		return nil, nil, false
	}
	var haveReset, haveVisits bool
	i = skipSpace(raw, i+1)
	for more := at(raw, i) != '}'; more; {
		nameEnd, err := skipString(raw, i)
		if err != nil {
			return nil, nil, false
		}
		name := raw[i:nameEnd]
		if i, err = expect(raw, nameEnd, ':'); err != nil {
			return nil, nil, false
		}
		switch {
		case !haveReset && nameIs(name, "reset"):
			haveReset = true
			reset, i, err = ints(raw, i)
		case !haveVisits && nameIs(name, "visits"):
			haveVisits = true
			visits, i, err = importVisits(raw, i, &body)
		default:
			err = errDeclined
		}
		if err == nil {
			i, more, err = next(raw, i, '}')
		}
		if err != nil {
			return nil, nil, false
		}
	}
	return reset, visits, true
}

// ints decodes the array of integers opening at raw[i] and returns the
// index past it.
func ints(raw []byte, i int) ([]int, int, error) {
	out := []int{}
	i, err := elements(raw, i, func(i int) (int, error) {
		n, end, err := integer(raw, i, strconv.IntSize)
		out = append(out, int(n))
		return end, err
	})
	return out, i, err
}

// importVisits decodes the array of visits opening at raw[i] and
// returns the index past it. Every visit opens one object, so the
// braces left in the body bound their count.
func importVisits(raw []byte, i int, body *string) ([]Visit, int, error) {
	out := make([]Visit, 0, bytes.Count(raw[i:], []byte{'{'}))
	i, err := elements(raw, i, func(i int) (int, error) {
		v, end, err := visit(raw, i, body)
		out = append(out, v)
		return end, err
	})
	return out, i, err
}

// visit decodes the visit object opening at raw[i] and returns the
// index past it.
func visit(raw []byte, i int, body *string) (Visit, int, error) {
	var v Visit
	if at(raw, i) != '{' {
		return v, 0, errDeclined
	}
	var seen uint8 // one bit per member
	i = skipSpace(raw, i+1)
	for more := at(raw, i) != '}'; more; {
		nameEnd, err := skipString(raw, i)
		if err != nil {
			return v, 0, err
		}
		var bit uint8
		switch string(raw[i+1 : nameEnd-1]) {
		case "user":
			bit = 1
		case "t":
			bit = 2
		case "h":
			bit = 4
		}
		if bit == 0 || seen&bit != 0 {
			return v, 0, errDeclined
		}
		seen |= bit
		if i, err = expect(raw, nameEnd, ':'); err != nil {
			return v, 0, err
		}
		var n int64
		switch bit {
		case 1:
			n, i, err = integer(raw, i, strconv.IntSize)
			v.User = int(n)
		case 2:
			v.Time, i, err = integer(raw, i, 64)
		default:
			v.Host, i, err = text(raw, i, body)
		}
		if err == nil {
			i, more, err = next(raw, i, '}')
		}
		if err != nil {
			return v, 0, err
		}
	}
	return v, i, nil
}

// integer decodes the number at raw[i] if it is an integer — no
// fraction or exponent — that fits in a signed integer of bits bits,
// and returns the index past it.
func integer(raw []byte, i, bits int) (int64, int, error) {
	if c := at(raw, i); c != '-' && (c < '0' || c > '9') {
		return 0, 0, errDeclined
	}
	end, err := skipNumber(raw, i)
	if err != nil {
		return 0, 0, err
	}
	digits, neg := raw[i:end], raw[i] == '-'
	limit := uint64(1)<<(bits-1) - 1
	if neg {
		digits, limit = digits[1:], limit+1
	}
	var u uint64
	for _, c := range digits {
		d := uint64(c - '0')
		if d > 9 || u > (limit-d)/10 {
			return 0, 0, errDeclined // a fraction, an exponent or an overflow
		}
		u = u*10 + d
	}
	n := int64(u)
	if neg {
		n = -n
	}
	return n, end, nil
}
