package provenance_test

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"provabs/internal/provenance"
	"provabs/internal/telco"
)

var (
	telcoMEncOnce sync.Once
	telcoMEnc     []byte
	telcoMEncErr  error
)

// telcoMEncoded is telco-m, the set perfbench's sweep workload creates its
// session from, as Encode writes it.
func telcoMEncoded(b *testing.B) []byte {
	b.Helper()
	telcoMEncOnce.Do(func() {
		var s *provenance.Set
		s, telcoMEncErr = telco.SyntheticProvenance(telco.Config{Customers: 20000, Zips: 2000, Plans: 128, Months: 12, Seed: 1000})
		if telcoMEncErr != nil {
			return
		}
		var buf bytes.Buffer
		telcoMEncErr = provenance.Encode(&buf, s)
		telcoMEnc = buf.Bytes()
	})
	if telcoMEncErr != nil {
		b.Fatal(telcoMEncErr)
	}
	return telcoMEnc
}

// BenchmarkDecodeVsOracle times Decode against the reader-based decoder it
// replaced, on the same telco-m bytes.
func BenchmarkDecodeVsOracle(b *testing.B) {
	for _, bc := range []struct {
		name   string
		decode func(io.Reader) (*provenance.Set, error)
	}{
		{"decode", provenance.Decode},
		{"oracle", provenance.DecodeOracle},
	} {
		b.Run(bc.name, func(b *testing.B) {
			enc := telcoMEncoded(b)
			b.SetBytes(int64(len(enc)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := bc.decode(bytes.NewReader(enc)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
