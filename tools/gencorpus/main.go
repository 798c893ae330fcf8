// Command gencorpus regenerates the seed corpora for package wire's fuzz
// targets under internal/wire/testdata/fuzz/. Run it from the repository
// root after changing the wire format:
//
//	go run ./tools/gencorpus
//
// The corpora complement the in-code f.Add seeds: they are checked in so
// `go test` always exercises the interesting shapes (valid packets of
// every kind, trimmed packets, CRC-corrupted packets, truncations) even
// without a fuzzing session, and `go test -fuzz` starts from real packets
// instead of rediscovering the magic bytes.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"

	"trimgrad/internal/wire"
)

const corpusRoot = "internal/wire/testdata/fuzz"

// corpus writes entries under root; the first failure sticks in err and
// turns every later write into a no-op.
type corpus struct {
	root string
	err  error
}

func (c *corpus) writeEntry(target, name string, values ...any) {
	if c.err != nil {
		return
	}
	dir := filepath.Join(c.root, target)
	if c.err = os.MkdirAll(dir, 0o755); c.err != nil {
		return
	}
	body := "go test fuzz v1\n"
	for _, v := range values {
		switch x := v.(type) {
		case []byte:
			body += "[]byte(" + strconv.Quote(string(x)) + ")\n"
		case uint64:
			body += fmt.Sprintf("uint64(%d)\n", x)
		case uint:
			body += fmt.Sprintf("uint(%d)\n", x)
		case uint8:
			body += fmt.Sprintf("byte(%q)\n", x)
		case int:
			body += fmt.Sprintf("int(%d)\n", x)
		default:
			c.err = fmt.Errorf("unsupported corpus value type %T", v)
			return
		}
	}
	c.err = os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644)
}

func main() {
	if err := run(corpusRoot); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote corpora under", corpusRoot)
}

// run writes every corpus entry under root.
func run(root string) error {
	c := &corpus{root: root}
	writeEntry := c.writeEntry
	h := wire.Header{
		Flow: 7, Message: 3, Row: 1, Start: 0,
		Count: 64, P: 4, Q: 12, Seed: 0xDEADBEEF,
	}
	heads := make([]uint32, h.Count)
	tails := make([]uint32, h.Count)
	for i := range heads {
		heads[i] = uint32(i) % (1 << h.P)
		tails[i] = uint32(i) * 2654435761 % (1 << h.Q)
	}
	data, err := wire.BuildDataPacket(h, heads, tails)
	if err != nil {
		return err
	}
	trimmed := wire.Trim(data, wire.HeaderSize+40)
	meta := wire.BuildMetaPacket(h, 3, 1024, 0.125)

	corrupt := func(buf []byte, off int) []byte {
		c := append([]byte(nil), buf...)
		c[off] ^= 0x40
		return c
	}

	for _, target := range []string{
		"FuzzParseDataPacket", "FuzzParseMetaPacket", "FuzzTrim", "FuzzValidateMatchesParse",
	} {
		writeEntry(target, "valid-data", data)
		writeEntry(target, "trimmed-data", trimmed)
		writeEntry(target, "valid-meta", meta)
		writeEntry(target, "unknown-flag", corrupt(data, 3)) // byte 3 is flags; no kind defines 0x40
		writeEntry(target, "corrupt-header", corrupt(data, 13))
		writeEntry(target, "corrupt-payload", corrupt(data, wire.HeaderSize+3))
		writeEntry(target, "corrupt-crc", corrupt(data, 33))
		writeEntry(target, "truncated", data[:wire.HeaderSize+5])
		writeEntry(target, "header-only", data[:wire.HeaderSize])
	}
	writeEntry("FuzzTrimPreservesHeads", "small", uint64(11), 16, 60)
	writeEntry("FuzzTrimPreservesHeads", "cut-in-tails", uint64(12), 128, 300)
	writeEntry("FuzzTrimPreservesHeads", "below-boundary", uint64(13), 200, 41)

	// Aggregate-merge corpus: (seed, count, tcA, tcB, mutate) tuples
	// covering matched keys at assorted trim points, the degenerate one-
	// coordinate packet, and each key-field mutation the merge must reject.
	writeEntry("FuzzAggregateMerge", "untrimmed", uint64(21), uint(64), uint(64), uint(64), uint8(0))
	writeEntry("FuzzAggregateMerge", "asymmetric-trim", uint64(22), uint(64), uint(5), uint(48), uint8(0))
	writeEntry("FuzzAggregateMerge", "fully-trimmed", uint64(23), uint(32), uint(0), uint(0), uint8(0))
	writeEntry("FuzzAggregateMerge", "one-coord", uint64(24), uint(1), uint(1), uint(0), uint8(0))
	writeEntry("FuzzAggregateMerge", "mismatch-message", uint64(25), uint(16), uint(8), uint(8), uint8(1))
	writeEntry("FuzzAggregateMerge", "mismatch-row", uint64(26), uint(16), uint(8), uint(8), uint8(2))
	writeEntry("FuzzAggregateMerge", "mismatch-offset", uint64(27), uint(16), uint(8), uint(8), uint8(4))

	// Aggregate-parse corpus: valid full and trimmed aggregates plus
	// corrupted and truncated variants.
	aggSums := make([]float32, 24)
	for i := range aggSums {
		aggSums[i] = float32(i) - 11.5
	}
	aggHdr := h
	aggHdr.Flow = 3
	aggHdr.Count = uint16(len(aggSums))
	aggFull, err := wire.BuildAggPacket(aggHdr, aggSums, aggSums)
	if err != nil {
		return err
	}
	aggTrimmed, err := wire.BuildAggPacket(aggHdr, aggSums, aggSums[:7])
	if err != nil {
		return err
	}
	writeEntry("FuzzParseAggPacket", "valid-agg", aggFull)
	writeEntry("FuzzParseAggPacket", "trimmed-agg", aggTrimmed)
	writeEntry("FuzzParseAggPacket", "corrupt-header", corrupt(aggFull, 13))
	writeEntry("FuzzParseAggPacket", "corrupt-sums", corrupt(aggFull, wire.HeaderSize+3))
	writeEntry("FuzzParseAggPacket", "truncated", aggFull[:wire.HeaderSize+9])
	writeEntry("FuzzParseAggPacket", "valid-data", data)

	// Validate-vs-parse corpus: every kind above (the loop already wrote
	// the data and meta shapes) plus the aggregates, a corrupted whole
	// tail region, metadata whose tail-CRC field (no CRC covers it there)
	// is not zero, and packets carrying the retired trimmed flag (bit 0,
	// now reserved), which both refuse: at full length, and with the
	// tail-CRC field zeroed as a marked trim once wrote it.
	writeEntry("FuzzValidateMatchesParse", "meta-tailcrc", corrupt(meta, 39))
	writeEntry("FuzzValidateMatchesParse", "valid-agg", aggFull)
	writeEntry("FuzzValidateMatchesParse", "trimmed-agg", aggTrimmed)
	writeEntry("FuzzValidateMatchesParse", "corrupt-agg-sums", corrupt(aggFull, wire.HeaderSize+3))
	writeEntry("FuzzValidateMatchesParse", "corrupt-tail", corrupt(data, len(data)-2))
	flagged := append([]byte(nil), data...)
	flagged[3] |= 1 // byte 3 is flags; bit 0 is reserved
	writeEntry("FuzzValidateMatchesParse", "trimmed-flag-full-length", flagged)
	zeroed := append([]byte(nil), flagged...)
	copy(zeroed[36:40], []byte{0, 0, 0, 0})
	writeEntry("FuzzValidateMatchesParse", "trimmed-flag-zero-tailcrc", zeroed)
	return c.err
}
