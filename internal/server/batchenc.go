package server

import (
	"encoding/json"
	"math"
	"sort"
	"strconv"

	"hostprof/internal/ontology"
)

// categoryTable writes /v1/profile/batch answers append-style — no map
// per session, no reflection — with the bytes encoding/json produces for
// a ProfileBatchResponse (TestBatchEncoderMatchesMarshal).
type categoryTable struct {
	// ids lists the category IDs in the order encoding/json sorts their
	// names as map keys; keys[i] is ids[i]'s name as Marshal quotes it
	// ('&' as \u0026), with the colon.
	ids  []int
	keys [][]byte
}

func newCategoryTable(tax *ontology.Taxonomy) categoryTable {
	t := categoryTable{ids: make([]int, tax.NumCategories())}
	for id := range t.ids {
		t.ids[id] = id
	}
	sort.Slice(t.ids, func(i, j int) bool {
		return tax.Category(t.ids[i]).Name < tax.Category(t.ids[j]).Name
	})
	for _, id := range t.ids {
		key, _ := json.Marshal(tax.Category(id).Name) // a string cannot fail
		t.keys = append(t.keys, append(key, ':'))
	}
	return t
}

// appendBatch appends the response body for one (vector, error) pair per
// session: json.Encoder's bytes for it, trailing newline included.
func (t categoryTable) appendBatch(dst []byte, vecs []ontology.Vector, errs []error) []byte {
	dst = append(dst, `{"profiles":[`...)
	for i, vec := range vecs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = t.appendResult(dst, vec, errs[i])
	}
	return append(dst, "]}\n"...)
}

// appendResult appends json.Marshal(ProfileResult{…}) of one session's
// outcome: the non-zero categories by name, or the error.
func (t categoryTable) appendResult(dst []byte, vec ontology.Vector, err error) []byte {
	if err != nil {
		msg, _ := json.Marshal(err.Error())
		return append(append(append(dst, `{"error":`...), msg...), '}')
	}
	none := true
	for i, id := range t.ids {
		v := vec[id]
		if v == 0 {
			continue
		}
		if none {
			dst = append(dst, `{"categories":{`...)
			none = false
		} else {
			dst = append(dst, ',')
		}
		dst = appendJSONFloat(append(dst, t.keys[i]...), v)
	}
	if none {
		return append(dst, "{}"...)
	}
	return append(dst, "}}"...)
}

// appendJSONFloat appends f as encoding/json formats a float64: 'f',
// or 'e' below 1e-6 and from 1e21 with a two-digit exponent's leading
// zero dropped.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}
