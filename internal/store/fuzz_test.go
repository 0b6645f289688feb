package store

import (
	"bytes"
	"testing"

	"hostprof/internal/trace"
)

// FuzzWALRecord drives the WAL record decoder with arbitrary bytes. The
// decoder sits directly on crash-recovery input, so it must never panic,
// never over-consume, and every visit it accepts must survive an
// encode/decode round trip unchanged.
func FuzzWALRecord(f *testing.F) {
	// Built from an int64 so that the seed compiles where int is 32 bits
	// (there it is truncated, and the refusal is TestDecodeRecordErrors').
	bigUser := int64(1) << 40
	for _, v := range []trace.Visit{
		{},
		{User: 1, Time: 42, Host: "seed.example"},
		{User: -3, Time: -9, Host: "negative.example"},
		{User: int(bigUser), Time: 1 << 50, Host: "big.example"},
	} {
		b, err := appendRecord(nil, v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		// A torn variant of each seed.
		f.Add(b[:len(b)-2])
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0}, 64))
	f.Add([]byte("go test fuzz corpus junk that is not a record"))

	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := decodeRecord(data)
		if err != nil {
			if n != 0 {
				t.Fatalf("error %v with non-zero consumed %d", err, n)
			}
			return
		}
		if n < recordHeader || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		re, err := appendRecord(nil, v)
		if err != nil {
			t.Fatalf("re-encode of decoded visit %+v: %v", v, err)
		}
		v2, n2, err := decodeRecord(re)
		if err != nil || n2 != len(re) || v2 != v {
			t.Fatalf("round trip diverged: %+v/%d/%v vs %+v", v2, n2, err, v)
		}
	})
}

// FuzzStoreOps runs TestStoreMatchesReference's op stream decoded from
// fuzz bytes against an in-memory store: every read must equal the
// reference's after every op.
func FuzzStoreOps(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(opBytes(seed, 200))
	}
	f.Add([]byte{0, 1, 0, 0, 3, 255, 7, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		runStoreOps(t, mustOpen(t, Config{Shards: 2}), data)
	})
}
