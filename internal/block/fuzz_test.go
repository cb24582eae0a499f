package block

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenFile throws arbitrary bytes at both open paths. The invariant
// under fuzz: corrupt input (truncated files, bad magic, bogus counts,
// broken CRCs) must produce an error, never a panic, and a successful open
// must yield a block whose advertised length matches what a full scan
// delivers — no over-read past the value region.
func FuzzOpenFile(f *testing.F) {
	// Valid seeds of every generation, plus targeted corruptions.
	valid := func(write func(string, []float64) error, vals []float64) []byte {
		p := filepath.Join(f.TempDir(), "seed")
		if err := write(p, vals); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	v3 := valid(WriteFile, []float64{1, 2, 3, 4})
	v2 := valid(WriteFileV2, []float64{1, 2, 3, 4})
	v1 := valid(WriteFileV1, []float64{1, 2, 3, 4})
	f.Add(v3)
	f.Add(v2)
	f.Add(v1)
	f.Add(v3[:len(v3)-5])        // truncated v3 footer
	f.Add(v2[:len(v2)-5])        // truncated v2 footer
	f.Add(v2[:headerSize])       // header only
	f.Add(v2[:3])                // shorter than the magic
	f.Add([]byte{})              // empty file
	f.Add([]byte("NOTISLBDATA")) // bad magic
	crcFlipped := append([]byte(nil), v2...)
	crcFlipped[len(crcFlipped)-1] ^= 0xFF
	f.Add(crcFlipped) // corrupt v2 footer CRC
	v3FooterCRC := append([]byte(nil), v3...)
	v3FooterCRC[len(v3FooterCRC)-1] ^= 0xFF
	f.Add(v3FooterCRC) // corrupt v3 footer CRC
	v3PayloadCRC := append([]byte(nil), v3...)
	v3PayloadCRC[len(v3PayloadCRC)-5] ^= 0xFF
	f.Add(v3PayloadCRC) // corrupt v3 payload-CRC field
	v3Payload := append([]byte(nil), v3...)
	v3Payload[headerSize+3] ^= 0x01
	f.Add(v3Payload) // flipped v3 payload bit
	hugeCount := append([]byte(nil), v2...)
	binary.LittleEndian.PutUint64(hugeCount[8:16], 1<<62) // implausible count
	f.Add(hugeCount)
	badVersion := append([]byte(nil), v2...)
	binary.BigEndian.PutUint32(badVersion[4:8], 99)
	f.Add(badVersion)

	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<20 {
			t.Skip("oversized input")
		}
		path := filepath.Join(t.TempDir(), "fuzz.islb")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		modes := []OpenMode{ModePread}
		if MmapSupported() {
			modes = append(modes, ModeMmap)
		}
		for _, mode := range modes {
			b, err := Open(0, path, mode)
			if err != nil {
				continue // rejected input is always fine
			}
			n := int64(0)
			if err := b.Scan(func(float64) error { n++; return nil }); err != nil {
				t.Errorf("mode=%v: accepted file failed to scan: %v", mode, err)
			} else if n != b.Len() {
				t.Errorf("mode=%v: Len=%d but scan delivered %d", mode, b.Len(), n)
			}
			if sum, ok := BlockSummary(b); ok && sum.Count != b.Len() {
				t.Errorf("mode=%v: summary count %d != len %d", mode, sum.Count, b.Len())
			}
			// The pread path verifies the payload checksum at open, so an
			// accepted v3 block must verify cleanly afterwards too.
			if mode == ModePread {
				if v, okv := b.(Verifier); okv {
					if _, err := v.VerifyPayload(); err != nil {
						t.Errorf("pread accepted a block VerifyPayload rejects: %v", err)
					}
				}
			}
			if c, okc := b.(interface{ Close() error }); okc {
				c.Close()
			}
		}
	})
}

// The pure parsers must reject short buffers without reading past them.
func FuzzParseHeaderFooter(f *testing.F) {
	hdr := encodeHeader(FormatV2, 123)
	f.Add(hdr[:])
	ft := encodeFooter(ComputeSummary([]float64{1, 2, 3}))
	f.Add(ft[:])
	ft3 := encodeFooterV3(ComputeSummary([]float64{1, 2, 3}), payloadChecksum([]float64{1, 2, 3}))
	f.Add(ft3[:])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		parseHeader(raw)
		parseFooter(raw)
		parseFooterV3(raw)
	})
}
