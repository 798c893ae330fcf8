// Command trimwire inspects and manipulates trimgrad wire-format packets:
// it parses headers, verifies checksums, applies the switch-side trim
// operation, and hex-dumps regions. With no input file it generates a
// demo packet so the format can be explored immediately.
//
// Examples:
//
//	trimwire -demo                     # build, show, trim a demo packet
//	trimwire -in pkt.bin               # inspect a captured packet
//	trimwire -in pkt.bin -trim 87 -out trimmed.bin
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"trimgrad/internal/quant"
	"trimgrad/internal/wire"
	"trimgrad/internal/xrand"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: it parses args, prints the inspection
// to stdout and returns the exit status — 2 for a rejected invocation (one
// line on stderr), 1 for a failure after the inputs were accepted.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trimwire", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in     = fs.String("in", "", "packet file to inspect (raw wire bytes)")
		out    = fs.String("out", "", "write the (possibly trimmed) packet here")
		trimTo = fs.Int("trim", -1, "apply switch-side Trim to this byte target")
		hex    = fs.Bool("hex", false, "hex-dump the packet regions")
	)
	// -demo only names the default: without -in the demo packet is inspected.
	fs.Bool("demo", false, "generate and inspect a demo packet (the default without -in)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	reject := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "trimwire: "+format+"\n", a...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "trimwire:", err)
		return 1
	}

	// -trim defaults to -1 ("do not trim"); a negative value given on the
	// command line is a mistake, not a way to spell the default.
	trimSet := false
	fs.Visit(func(f *flag.Flag) { trimSet = trimSet || f.Name == "trim" })
	if trimSet && *trimTo < 0 {
		return reject("-trim must be non-negative, got %d", *trimTo)
	}

	var buf []byte
	if *in != "" {
		b, err := os.ReadFile(*in)
		if err != nil {
			return reject("%v", err)
		}
		buf = b
	} else {
		b, err := demoPacket()
		if err != nil {
			return fail(err)
		}
		buf = b
		fmt.Fprintln(stdout, "(no -in given: inspecting a generated demo packet)")
	}

	if trimSet {
		before := len(buf)
		buf = wire.Trim(buf, *trimTo)
		fmt.Fprintf(stdout, "Trim(%d): %d -> %d bytes\n\n", *trimTo, before, len(buf))
	}

	inspect(stdout, buf, *hex)

	if *out != "" {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "\nwrote %d bytes to %s\n", len(buf), *out)
	}
	return 0
}

func demoPacket() ([]byte, error) {
	r := xrand.New(42)
	row := make([]float32, 354)
	for i := range row {
		row[i] = float32(r.NormFloat64() * 0.05)
	}
	c := quant.MustNew(quant.Params{Scheme: quant.RHT})
	padded := make([]float32, 512)
	copy(padded, row)
	enc, err := c.Encode(padded, 7)
	if err != nil {
		return nil, err
	}
	_, data, err := wire.PackRow(1, 2, 0, enc)
	if err != nil {
		return nil, err
	}
	return data[0], nil
}

func inspect(w io.Writer, buf []byte, hexDump bool) {
	h, err := wire.ParseHeader(buf)
	if err != nil {
		fmt.Fprintf(w, "not a trimgrad packet: %v\n", err)
		return
	}
	kind := "data"
	switch {
	case h.IsMeta():
		kind = "metadata"
	case h.IsAgg():
		kind = "aggregate"
	}
	fmt.Fprintf(w, "kind      %s\n", kind)
	fmt.Fprintf(w, "cut       %v\n", h.IsCut(len(buf)))
	fmt.Fprintf(w, "flow      %d\n", h.Flow)
	fmt.Fprintf(w, "message   %d  row %d  start %d  count %d\n", h.Message, h.Row, h.Start, h.Count)
	fmt.Fprintf(w, "geometry  P=%d head bits, Q=%d tail bits per coordinate\n", h.P, h.Q)
	fmt.Fprintf(w, "seed      %#x\n", h.Seed)
	fmt.Fprintf(w, "size      %d bytes on wire (+%d network overhead)\n", len(buf), wire.NetOverhead)

	switch {
	case h.IsMeta():
		m, err := wire.ParseMetaPacket(buf)
		if err != nil {
			fmt.Fprintf(w, "metadata  INVALID: %v\n", err)
			return
		}
		fmt.Fprintf(w, "metadata  scheme=%v N=%d scale=%g\n", quant.Scheme(m.Scheme), m.N, m.Scale)
	case h.IsAgg():
		_, tailCount, err := wire.CheckAggPacket(buf)
		if err != nil {
			fmt.Fprintf(w, "payload   INVALID: %v\n", err)
			return
		}
		fmt.Fprintf(w, "payload   sums of %d packets, full-precision sums %d/%d\n",
			h.Flow, tailCount, h.Count)
	default:
		p, err := wire.ParseDataPacket(buf)
		if err != nil {
			fmt.Fprintf(w, "payload   INVALID: %v\n", err)
			return
		}
		fmt.Fprintf(w, "payload   heads complete (%d), tails %d/%d (%s)\n",
			len(p.Heads), p.TailCount, p.Count,
			map[bool]string{true: "trimmed", false: "intact"}[p.TailCount < int(p.Count)])
		fmt.Fprintf(w, "regions   header[0:%d) heads[%d:%d) tails[%d:%d)\n",
			wire.HeaderSize, wire.HeaderSize, wire.HeaderSize+h.HeadBytes(),
			wire.HeaderSize+h.HeadBytes(), h.FullSize())
		fmt.Fprintf(w, "trim      boundary at %d bytes → %.1f%% compression\n",
			h.TrimmedSize(),
			100*(1-float64(h.TrimmedSize()+wire.NetOverhead)/float64(h.FullSize()+wire.NetOverhead)))
	}

	if hexDump {
		fmt.Fprintln(w)
		dump(w, buf)
	}
}

func dump(w io.Writer, buf []byte) {
	for off := 0; off < len(buf); off += 16 {
		end := off + 16
		if end > len(buf) {
			end = len(buf)
		}
		fmt.Fprintf(w, "%06x  ", off)
		for i := off; i < end; i++ {
			fmt.Fprintf(w, "%02x ", buf[i])
		}
		fmt.Fprintln(w)
		if off >= 256 {
			fmt.Fprintf(w, "... (%d more bytes)\n", len(buf)-end)
			return
		}
	}
}
