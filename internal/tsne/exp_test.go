package tsne

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"hostprof/internal/stats"
)

// expArgs returns the special cases of exp and n seeded arguments over
// its finite range, most of them in t-SNE's [-50, 0].
func expArgs(n int) []float64 {
	xs := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		709.78, 709.79, -745.13, -745.14, 1.0 / (1 << 29), -1.0 / (1 << 29),
		-708.5, -740, // subnormal results
		1, -1, 0.5 * math.Ln2, -0.5 * math.Ln2,
	}
	rng := stats.NewRNG(238)
	for i := 0; i < n; i++ {
		if i%4 == 0 {
			xs = append(xs, -745+1455*rng.Float64())
		} else {
			xs = append(xs, -50*rng.Float64())
		}
	}
	return xs
}

// TestExpWithinTwoULPs: exp agrees with math.Exp to two units in the
// last place on every argument, and on the special cases exactly. Where
// math.Exp is the portable code exp ports (every GOARCH but amd64, arm64
// and s390x; CI runs this under GOARCH=386), it agrees bit for bit.
func TestExpWithinTwoULPs(t *testing.T) {
	portable := runtime.GOARCH != "amd64" && runtime.GOARCH != "arm64" && runtime.GOARCH != "s390x"
	for _, x := range expArgs(200000) {
		if !portable && x > 709 {
			continue // amd64's assembly overflows early: exp(709.78) is +Inf there
		}
		got, want := exp(x), math.Exp(x)
		if math.IsNaN(want) {
			if !math.IsNaN(got) {
				t.Fatalf("exp(%v) = %v, want NaN", x, got)
			}
			continue
		}
		if portable && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("exp(%v) = %v, the portable math.Exp gives %v", x, got, want)
		}
		// Both are within one ulp of e**x, so within two of each other;
		// the results are never negative, so their bits order like them.
		if d := int64(math.Float64bits(got)) - int64(math.Float64bits(want)); d < -2 || d > 2 {
			t.Fatalf("exp(%v) = %v, math.Exp gives %v: %d ulps apart", x, got, want, d)
		}
	}
}

// expBitsSHA256 is the sha256 of exp's bits over expArgs(200000), the
// same on every GOARCH.
const expBitsSHA256 = "3688438a134d639767345385e78990fdbfb3df189d612b5dbeadf84e5881c3e7"

// TestExpPinnedAcrossArchitectures holds exp's bits to one digest, so
// that amd64 and GOARCH=386 (CI runs both) compute the same t-SNE layout.
func TestExpPinnedAcrossArchitectures(t *testing.T) {
	h := sha256.New()
	for _, x := range expArgs(200000) {
		binary.Write(h, binary.LittleEndian, math.Float64bits(exp(x)))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != expBitsSHA256 {
		t.Fatalf("exp bits digest %s, pinned %s", got, expBitsSHA256)
	}
}
