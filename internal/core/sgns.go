package core

// The trainer's kernel contract. One SGD step of Equation (2) on a
// (centre, context) pair scores 1+K target rows of the context matrix
// against the centre row, takes a sigmoid of each dot, moves every
// target row along the centre row while summing the centre's share of
// the gradient, and then moves the centre row by that sum. The two
// passes are the kernels below; both take their rows as one matrix m
// plus element offsets, a row being m[off[k] : off[k]+len(c)].
//
// sgnsDotRows sets out[k] to the dot product of c with row k. Each dot
// keeps eight partial sums: lane j adds the products of elements j, j+8,
// j+16, … in index order, each product rounded to float32 before it is
// added. What the groups of eight leave is, if four or more elements, one
// group of four added to lanes 0–3, then up to three elements folded into
// lane 0. The reduction adds lane j+4 to lane j for j = 0..3 and returns
// ((t0+t1)+t2)+t3. Rows are scored one after another and nothing is
// written but out, so a row may repeat.
//
// sgnsUpdateRows is elementwise: for element i, for k = 0, 1, … in order,
// neu[i] += g[k]·o_k[i], then o_k[i] += g[k]·c[i] on the o_k[i] it read,
// each product rounded to float32 before its add; then, with centre set,
// c[i] += neu[i] on the neu[i] it wrote. Those are the IEEE operations,
// in the same order, of one single-row update per k in turn followed by
// the centre's add: each element touches only element i of neu, c and
// the rows. A repeated offset therefore moves its row twice, the second
// step reading what the first wrote. Two rows either coincide or do not
// overlap, and neither neu nor c overlaps a row or the other. A pair
// that steps in several calls sets centre on its last call only.
//
// The amd64 assembly (sgns_amd64.s) has two pairs, whose dots both
// prefetch every row before the first product. The SSE2 pair holds a
// dot's lanes in two SSE registers, two add chains in flight, and keeps
// four elements of c and neu in registers while it steps through the
// rows. The AVX pair scores two rows at a time, each row's eight lanes
// in one YMM register, and updates row by row, eight elements at a
// time, then adds neu to c in a last pass. The portable code below
// spells the same arithmetic out. All perform the same IEEE-754
// operations in the same order, so from equal rows they leave equal
// bits — except that a NaN is only promised to be a NaN, sign and
// payload being the processor's — and the trainer trains the same model
// whichever ran.

// The kernel pairs sgnsPath picks from.
const (
	sgnsPortable = iota
	sgnsSSE2
	sgnsAVX
)

// sgnsDotRows sets out[k] to the float32 inner product of c with the row
// of m at element offset off[k], under the contract above: dotRows
// behind a bounds check, for callers that have not proven their rows.
func sgnsDotRows(c, m []float32, off []int, out []float32) {
	if len(out) < len(off) {
		panic("core: sgnsDotRows output shorter than its rows")
	}
	checkRows(len(c), m, off)
	dotRows(c, m, off, out)
}

// sgnsUpdateRows adds g[k]·(row k) to neu and g[k]·c to row k of m for
// every offset and, with centre set, neu to c, under the contract above:
// updateRows behind a bounds check.
func sgnsUpdateRows(g, c, m []float32, off []int, neu []float32, centre bool) {
	if len(g) < len(off) || len(neu) < len(c) {
		panic("core: sgnsUpdateRows length mismatch")
	}
	checkRows(len(c), m, off)
	updateRows(g, c, m, off, neu, centre)
}

// checkRows panics unless every offset starts a whole n-element row of m.
func checkRows(n int, m []float32, off []int) {
	for _, o := range off {
		// A negative offset wraps past len(m) as an unsigned number.
		if uint(o) > uint(len(m)) || n > len(m)-o {
			panic("core: sgns row outside the matrix")
		}
	}
}

// sgnsDotRowsPortable is the dot contract in plain Go: the implementation
// on architectures without assembly and the oracle the assembly is tested
// against. The float32 conversions pin the rounding of each product,
// which the language otherwise lets a compiler fuse into the add.
func sgnsDotRowsPortable(c, m []float32, off []int, out []float32) {
	out = out[:len(off)]
	n := len(c)
	for k, o := range off {
		b := m[o : o+n]
		var s0, s1, s2, s3, s4, s5, s6, s7 float32
		i := 0
		for ; i+8 <= n; i += 8 {
			s0 += float32(c[i] * b[i])
			s1 += float32(c[i+1] * b[i+1])
			s2 += float32(c[i+2] * b[i+2])
			s3 += float32(c[i+3] * b[i+3])
			s4 += float32(c[i+4] * b[i+4])
			s5 += float32(c[i+5] * b[i+5])
			s6 += float32(c[i+6] * b[i+6])
			s7 += float32(c[i+7] * b[i+7])
		}
		if i+4 <= n {
			s0 += float32(c[i] * b[i])
			s1 += float32(c[i+1] * b[i+1])
			s2 += float32(c[i+2] * b[i+2])
			s3 += float32(c[i+3] * b[i+3])
			i += 4
		}
		for ; i < n; i++ {
			s0 += float32(c[i] * b[i])
		}
		s0, s1, s2, s3 = s0+s4, s1+s5, s2+s6, s3+s7
		out[k] = s0 + s1 + s2 + s3
	}
}

// sgnsUpdateRowsPortable is the update contract in plain Go; g holds one
// step per offset and neu is as long as c.
func sgnsUpdateRowsPortable(g, c, m []float32, off []int, neu []float32, centre bool) {
	g, neu = g[:len(off)], neu[:len(c)]
	for _, o := range off {
		_ = m[o : o+len(c)]
	}
	for i, ci := range c {
		for k, o := range off {
			oi := m[o+i]
			neu[i] += float32(g[k] * oi)
			m[o+i] = oi + float32(g[k]*ci)
		}
		if centre {
			c[i] = ci + neu[i]
		}
	}
}
