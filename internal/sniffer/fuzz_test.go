package sniffer

import (
	"bytes"
	"testing"

	"hostprof/internal/stats"
)

// An observer parses what an adversary writes: whatever arrives on the
// ports it watches. The fuzz targets hold the three wire parsers to their
// references, or to their own builders, on arbitrary bytes. Inputs that
// ever broke one are kept under testdata/fuzz and replayed by go test.

// FuzzQUICInitial opens data as a datagram and, so that the frame walk
// behind the AEAD tag meets hostile bytes too, as the frames of a
// correctly sealed Initial; opener and reference must agree on both.
func FuzzQUICInitial(f *testing.F) {
	rng := stats.NewRNG(61)
	for _, host := range []string{"fuzz.example", "a.io"} {
		pkt, err := BuildQUICInitial(host, rng)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(pkt)
		f.Add(pkt[:len(pkt)/2])
		for _, bit := range []int{0, 3, 5, 8 * 1, 8 * 5, 8 * 6, 8 * 15, 8 * 22, 8 * 24, 8 * 26, 8 * 40, 8*len(pkt) - 1} {
			flipped := append([]byte(nil), pkt...)
			flipped[bit/8] ^= 1 << (bit % 8)
			f.Add(flipped)
		}
	}
	f.Add(sealInitial(f, scatteredHello("scattered.example", rng), []byte("retry token")))
	f.Add(scatteredHello("frames.example", rng))
	f.Add([]byte{frameTypeCrypto, 0, 0})
	f.Add([]byte{frameTypeCrypto, 0, 1, 1, frameTypeCrypto, 0, 0, frameTypeCrypto, 1, 0})
	f.Add([]byte{0x40, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		checkOpenersAgree(t, data)
		if len(data) <= 4096 {
			checkOpenersAgree(t, sealInitial(t, append([]byte(nil), data...), nil))
		}
	})
}

// FuzzClientHello holds ParseSNI to the always-copy reference on data as a
// stream, and the Observer to the always-buffer reference when that
// stream arrives as two TCP segments cut anywhere, in either order.
func FuzzClientHello(f *testing.F) {
	rng := stats.NewRNG(62)
	hello := BuildClientHello("fuzz.example", rng)
	f.Add(hello)
	f.Add(hello[:len(hello)-1])
	f.Add(BuildClientHelloECH(rng))
	f.Add(overTwoRecords(hello, 50))
	f.Add(append(append([]byte(nil), hello...), 0x17, 0x03, 0x03, 0, 1, 0))
	f.Add([]byte("host.name.example"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		before := append([]byte(nil), data...)
		host, err := ParseSNI(data)
		if !bytes.Equal(before, data) {
			t.Fatal("ParseSNI wrote to the stream")
		}
		if want, werr := refParseSNI(data); host != want || errClass(err) != errClass(werr) {
			t.Fatalf("ParseSNI (%q, %v), reference (%q, %v)", host, err, want, werr)
		}

		src, dst := [4]byte{10, 0, 1, 1}, [4]byte{93, 0, 0, 1}
		cfg := ObserverConfig{IPFallback: true}
		obs, ref := NewObserver(cfg), newRefObserver(cfg)
		port := uint16(1024) // a flow per cut and order
		step := 1 + len(data)/64
		for cut := 1; cut < len(data) && len(data) < 1<<15; cut += step {
			// The assembler puts the halves back together, so the parse
			// of its prefix is the parse of the stream.
			asm := newStreamAssembler()
			asm.SYN(100)
			asm.Add(101+uint32(cut), data[cut:])
			asm.Add(101, data[:cut])
			if got, gerr := ParseSNI(asm.Bytes()); got != host || errClass(gerr) != errClass(err) {
				t.Fatalf("cut %d: ParseSNI after reassembly (%q, %v), on the stream (%q, %v)", cut, got, gerr, host, err)
			}

			for _, reordered := range []bool{false, true} {
				port++
				frames := [][]byte{
					tcpFrame(src, dst, port, 443, 101, 1, TCPFlagACK, data[:cut]),
					tcpFrame(src, dst, port, 443, 101+uint32(cut), 1, TCPFlagACK, data[cut:]),
				}
				if reordered {
					frames[0], frames[1] = frames[1], frames[0]
				}
				for i, frame := range frames {
					v, ok := obs.ProcessPacket(frame, 1)
					if rv, rok := ref.ProcessPacket(frame, 1); v != rv || ok != rok {
						t.Fatalf("cut %d, segment %d: observer (%+v, %v), reference (%+v, %v)", cut, i, v, ok, rv, rok)
					}
				}
			}
		}

		if name := string(data); len(name) > 0 && len(name) <= 255 {
			if got, err := ParseSNI(BuildClientHello(name, stats.NewRNG(1))); err != nil || got != name {
				t.Fatalf("parse(build(%q)) = (%q, %v)", name, got, err)
			}
		}
	})
}

// FuzzDNS: a name either parser returns is one DNS could carry, and what
// the builders render parses back.
func FuzzDNS(f *testing.F) {
	q, err := BuildDNSQuery("fuzz.example", 7)
	if err != nil {
		f.Fatal(err)
	}
	resp, err := BuildDNSResponse("fuzz.example", 7, [4]byte{93, 1, 2, 3})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(q)
	f.Add(resp)
	f.Add(q[:len(q)-5])
	f.Add(resp[:len(resp)-3])
	f.Add([]byte("fuzz.example"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if name, err := ParseDNSQueryName(data); err == nil && (name == "" || len(name) > 255) {
			t.Fatalf("query name of %d bytes accepted", len(name))
		}
		if name, _, err := ParseDNSResponse(data); err == nil && (name == "" || len(name) > 255) {
			t.Fatalf("response name of %d bytes accepted", len(name))
		}

		host := string(data)
		q, err := BuildDNSQuery(host, 9)
		if err != nil {
			return
		}
		if got, err := ParseDNSQueryName(q); err != nil || got != host {
			t.Fatalf("query parse(build(%q)) = (%q, %v)", host, got, err)
		}
		addr := [4]byte{93, 4, 5, 6}
		resp, err := BuildDNSResponse(host, 9, addr)
		if err != nil {
			t.Fatalf("query for %q builds, response does not: %v", host, err)
		}
		got, addrs, err := ParseDNSResponse(resp)
		if err != nil || got != host || len(addrs) != 1 || [4]byte(addrs[0][:4]) != addr {
			t.Fatalf("response parse(build(%q)) = (%q, %v, %v)", host, got, addrs, err)
		}
	})
}
