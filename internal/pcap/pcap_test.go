package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	pkts := [][]byte{
		{1, 2, 3, 4},
		{},
		bytes.Repeat([]byte{0xaa}, 1500),
	}
	for i, p := range pkts {
		if err := w.WriteRecord(uint32(100+i), uint32(i), p); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkType != LinkTypeEthernet {
		t.Fatalf("link type %d", r.LinkType)
	}
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(pkts) {
		t.Fatalf("got %d records", len(recs))
	}
	for i, rec := range recs {
		if !bytes.Equal(rec.Data, pkts[i]) {
			t.Fatalf("record %d data mismatch", i)
		}
		if rec.TimeSec != uint32(100+i) || rec.TimeMicro != uint32(i) {
			t.Fatalf("record %d timestamp %d.%d", i, rec.TimeSec, rec.TimeMicro)
		}
		if rec.OrigLen != uint32(len(pkts[i])) {
			t.Fatalf("record %d origlen %d", i, rec.OrigLen)
		}
	}
}

func TestBigEndianRead(t *testing.T) {
	// Hand-craft a big-endian capture with one 3-byte record.
	var buf bytes.Buffer
	be := binary.BigEndian
	hdr := make([]byte, 24)
	be.PutUint32(hdr[0:4], 0xa1b2c3d4)
	be.PutUint16(hdr[4:6], 2)
	be.PutUint16(hdr[6:8], 4)
	be.PutUint32(hdr[16:20], 65535)
	be.PutUint32(hdr[20:24], 1)
	buf.Write(hdr)
	rec := make([]byte, 16)
	be.PutUint32(rec[0:4], 7)
	be.PutUint32(rec[4:8], 8)
	be.PutUint32(rec[8:12], 3)
	be.PutUint32(rec[12:16], 3)
	buf.Write(rec)
	buf.Write([]byte{9, 9, 9})

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.TimeSec != 7 || got.TimeMicro != 8 || len(got.Data) != 3 {
		t.Fatalf("record %+v", got)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(make([]byte, 24))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v", err)
	}
}

func TestTruncatedHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(make([]byte, 10))); err == nil {
		t.Fatal("expected error")
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRecord(1, 2, []byte{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	r, err := NewReader(bytes.NewReader(data[:len(data)-2]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v", err)
	}
}

func TestEmptyCapture(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.writeHeader(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.ReadAll()
	if err != nil || len(recs) != 0 {
		t.Fatalf("recs=%v err=%v", recs, err)
	}
}

func TestSnapLenEnforced(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.snapLen = 4
	if err := w.WriteRecord(0, 0, []byte{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Data) != 4 || rec.OrigLen != 6 {
		t.Fatalf("caplen=%d origlen=%d", len(rec.Data), rec.OrigLen)
	}
}

// hostileCapture is a 40-byte file whose global header has snaplen 0
// (no cap) and whose one record header claims 16 MiB of data that is
// not there.
func hostileCapture() []byte {
	b := make([]byte, 40)
	le := binary.LittleEndian
	le.PutUint32(b[0:4], magicMicros)
	le.PutUint16(b[4:6], versionMajor)
	le.PutUint16(b[6:8], versionMinor)
	le.PutUint32(b[20:24], LinkTypeEthernet)
	le.PutUint32(b[32:36], 1<<24)
	le.PutUint32(b[36:40], 1<<24)
	return b
}

// readCapture parses a whole capture from memory.
func readCapture(b []byte) ([]Record, error) {
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	return r.ReadAll()
}

// TestHostileHeaderAllocatesWhatIsPresent: a record header claiming
// 16 MiB over a 40-byte file is reported truncated after allocating
// what the file holds (plus one eager buffer), not what it claims.
func TestHostileHeaderAllocatesWhatIsPresent(t *testing.T) {
	b := hostileCapture()
	if _, err := readCapture(b); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		readCapture(b)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 2*eagerBody {
		t.Fatalf("a %d-byte hostile capture allocates %d bytes per read, want ≤ %d", len(b), per, 2*eagerBody)
	}
}

// TestLongRecordReadInSteps: a record longer than the eager buffer
// reads back whole, and cut one byte short it is still ErrTruncated.
func TestLongRecordReadInSteps(t *testing.T) {
	var buf bytes.Buffer
	data := make([]byte, 5*eagerBody+3)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := NewWriter(&buf).WriteRecord(1, 2, data); err != nil {
		t.Fatal(err)
	}
	recs, err := readCapture(buf.Bytes())
	if err != nil || len(recs) != 1 || !bytes.Equal(recs[0].Data, data) {
		t.Fatalf("long record did not round-trip: err=%v", err)
	}
	if _, err := readCapture(buf.Bytes()[:buf.Len()-1]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

// FuzzPcap holds the reader to two oracles. Arbitrary bytes return
// records or an error, never panic, and never yield more record bytes,
// or a record buffer larger, than the input can account for. And
// records spelled out by the input — a length byte, then that many
// data bytes, repeated — come back from ReadAll(Write(records))
// unchanged.
func FuzzPcap(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteRecord(1, 2, []byte{1, 2, 3, 4})
	w.WriteRecord(3, 4, nil)
	f.Add(buf.Bytes())
	f.Add(hostileCapture())
	f.Add([]byte{3, 'a', 'b', 'c', 0, 1, 'z'})
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, _ := readCapture(b)
		total := 0
		for _, rec := range recs {
			total += len(rec.Data)
			if cap(rec.Data) > max(eagerBody, 2*len(b)) {
				t.Fatalf("record buffer cap %d from a %d-byte input", cap(rec.Data), len(b))
			}
		}
		if total > len(b) {
			t.Fatalf("%d record bytes from a %d-byte input", total, len(b))
		}

		var want []Record
		for i, rest := 0, b; len(rest) > 0; i++ {
			n := min(int(rest[0]), len(rest)-1)
			want = append(want, Record{TimeSec: uint32(i), TimeMicro: uint32(n), Data: rest[1 : 1+n], OrigLen: uint32(n)})
			rest = rest[1+n:]
		}
		if len(want) == 0 {
			return
		}
		var out bytes.Buffer
		w := NewWriter(&out)
		for _, rec := range want {
			if err := w.WriteRecord(rec.TimeSec, rec.TimeMicro, rec.Data); err != nil {
				t.Fatal(err)
			}
		}
		got, err := readCapture(out.Bytes())
		if err != nil {
			t.Fatalf("ReadAll(Write(records)): %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d records back, wrote %d", len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.TimeSec != w.TimeSec || g.TimeMicro != w.TimeMicro || g.OrigLen != w.OrigLen || !bytes.Equal(g.Data, w.Data) {
				t.Fatalf("record %d: got %+v, wrote %+v", i, g, w)
			}
		}
	})
}

// ReadAll consumes every record.
func (r *Reader) ReadAll() ([]Record, error) {
	var out []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}
