package xrand

import "testing"

// Cross-machine reproducibility goldens. The trimmable-gradient schemes
// only work if sender and receiver derive bit-identical streams from the
// same (epoch, msgID, row) tuple, on different machines, forever. These
// values pin the exact outputs of the generator for fixed seeds; if any
// future change to Seed, the SplitMix64 expansion, the xoshiro256** core,
// or the float conversions alters a single bit, this test fails loudly.
// Do NOT update the constants to make it pass unless you are knowingly
// breaking wire compatibility with every previously recorded transcript.
var goldenStreams = []struct {
	epoch, msg, row uint64
	seed            uint64
	u64             [3]uint64
	f64             [2]float64
	norm            float64
	intn            [3]int
}{
	{0, 0, 0, 0x25046eca5c3a7054,
		[3]uint64{0xb52611dec815ecaa, 0xe808a5ca995e16df, 0x82f6f7f715120d81},
		[2]float64{0.7076121491337158, 0.9063819522501648},
		0.2750276447037455,
		[3]int{707, 906, 511}},
	{1, 2, 3, 0xac353cecc6b8f974,
		[3]uint64{0xd789079db7b76a00, 0xe57798e39331a041, 0x5c103553ea3f879e},
		[2]float64{0.8419346580555761, 0.8963561587908715},
		-1.7315043639379635,
		[3]int{841, 896, 359}},
	{7, 42, 9, 0xc17fdeebdb0f6834,
		[3]uint64{0x325e36c2c82ca715, 0x3f56eeddc5eb90ba, 0xc5b7e41de80083c1},
		[2]float64{0.19675009017389522, 0.24742024340041113},
		-0.7474763836200938,
		[3]int{196, 247, 772}},
	{1 << 40, 123456, 32767, 0xde1b40d696653165,
		[3]uint64{0xfa5fac7d4d131d30, 0x1d5dca751c56bb4f, 0xdf9dba61ed3180bf},
		[2]float64{0.9780223661337683, 0.11471238478801637},
		0.9157116656116041,
		[3]int{978, 114, 873}},
}

func TestGoldenStreams(t *testing.T) {
	for _, g := range goldenStreams {
		seed := Seed(g.epoch, g.msg, g.row)
		if seed != g.seed {
			t.Fatalf("Seed(%d,%d,%d) = %#x, want %#x — shared-randomness derivation changed",
				g.epoch, g.msg, g.row, seed, g.seed)
		}
		r := New(seed)
		for i, want := range g.u64 {
			if got := r.Uint64(); got != want {
				t.Errorf("seed %#x: Uint64 #%d = %#x, want %#x", seed, i, got, want)
			}
		}
		r.Reseed(seed) // Reseed must restart the identical stream
		for i, want := range g.f64 {
			if got := r.Float64(); got != want {
				t.Errorf("seed %#x: Float64 #%d = %v, want %v", seed, i, got, want)
			}
		}
		r.Reseed(seed)
		if got := r.NormFloat64(); got != g.norm {
			t.Errorf("seed %#x: NormFloat64 = %v, want %v", seed, got, g.norm)
		}
		r.Reseed(seed)
		for i, want := range g.intn {
			if got := r.Intn(1000); got != want {
				t.Errorf("seed %#x: Intn(1000) #%d = %d, want %d", seed, i, got, want)
			}
		}
	}
}

// TestGoldenSeedMixing pins the Seed combiner itself: component order must
// matter and the empty seed is the documented sqrt(2) constant.
func TestGoldenSeedMixing(t *testing.T) {
	if got := Seed(1, 2); got != 0x8059eb3418e61d41 {
		t.Errorf("Seed(1,2) = %#x, want 0x8059eb3418e61d41", got)
	}
	if got := Seed(2, 1); got != 0xd5945e7ac68d4e6e {
		t.Errorf("Seed(2,1) = %#x, want 0xd5945e7ac68d4e6e", got)
	}
	if got := Seed(); got != 0x6a09e667f3bcc909 {
		t.Errorf("Seed() = %#x, want 0x6a09e667f3bcc909", got)
	}
}
