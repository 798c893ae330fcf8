// Command trainsim runs one distributed-training simulation: choose the
// encoding scheme, trim/drop rate, worker count and epochs, and get the
// per-epoch accuracy trajectory against simulated wall-clock time.
//
// Examples:
//
//	trainsim -scheme rht -trim 0.5 -epochs 12
//	trainsim -scheme baseline -drop 0.01
//	trainsim -scheme sq -trim 0.1 -workers 4 -record trims.json
//	trainsim -scheme sq -trim 0.1 -workers 4 -replay trims.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"trimgrad/internal/core"
	"trimgrad/internal/ddp"
	"trimgrad/internal/ml"
	"trimgrad/internal/obs"
	"trimgrad/internal/prof"
	"trimgrad/internal/quant"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: it parses args, trains, prints the
// epoch table to stdout and returns the exit status — 2 for an invocation
// rejected before any training (one line on stderr), 1 for a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trainsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scheme   = fs.String("scheme", "rht", "encoding: baseline|sign|sq|sd|rht|linear|rht-linear|eden")
		headBits = fs.Int("p", 1, "head bits per coordinate (linear/rht-linear: 1..16, eden: 1..4)")
		trim     = fs.Float64("trim", 0, "per-packet trim probability")
		drop     = fs.Float64("drop", 0, "per-packet drop probability (baseline)")
		workers  = fs.Int("workers", 2, "data-parallel workers")
		epochs   = fs.Int("epochs", 12, "training epochs")
		lr       = fs.Float64("lr", 0.07, "learning rate")
		seed     = fs.Uint64("seed", 1, "run seed")
		record   = fs.String("record", "", "record the trim transcript to this file (§5.4)")
		replay   = fs.String("replay", "", "replay a recorded trim transcript (§5.4)")
		hard     = fs.Bool("hard", true, "use the hard 100-class benchmark task")
		metrics  = fs.String("metrics", "", "export per-round telemetry (ddp.round.* spans, codec counters) as JSONL to this file")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	reject := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "trainsim: "+format+"\n", a...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "trainsim:", err)
		return 1
	}

	// The library reads 0 as "use the default"; on a command line it is a
	// typo, like any other count below 1.
	if *workers < 1 {
		return reject("-workers must be at least 1, got %d", *workers)
	}
	if *epochs < 1 {
		return reject("-epochs must be at least 1, got %d", *epochs)
	}
	cfg := ddp.Config{
		Workers:  *workers,
		TrimRate: *trim,
		DropRate: *drop,
		Epochs:   *epochs,
		LR:       *lr,
		Seed:     *seed,
		RowSize:  1 << 15,
	}
	if *scheme != "baseline" {
		s, err := quant.ParseScheme(*scheme)
		if err != nil {
			return reject("%v", err)
		}
		cfg.Scheme = &quant.Params{Scheme: s, P: *headBits}
	}

	var recorder *core.Recorder
	switch {
	case *record != "" && *replay != "":
		return reject("-record and -replay are mutually exclusive")
	case *record != "":
		recorder = core.NewRecorder(core.NewTrimmer(*trim, *seed+0x7717))
		cfg.Injector = recorder
	case *replay != "":
		f, err := os.Open(*replay)
		if err != nil {
			return reject("%v", err)
		}
		transcript, err := core.LoadTranscript(f)
		f.Close()
		if err != nil {
			return reject("%v", err)
		}
		cfg.Injector = core.NewPlayer(transcript)
	}

	dcfg := ml.SyntheticConfig{
		Classes: 100, Dim: 64, Train: 8000, Test: 2000,
		Noise: 12.8, Spread: 8.0, Seed: 42,
	}
	if !*hard {
		dcfg = ml.SyntheticConfig{
			Classes: 20, Dim: 32, Train: 3000, Test: 800,
			Noise: 0.5, Spread: 1.0, Seed: 42,
		}
	}
	train, test := ml.Synthetic(dcfg)

	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.New()
	}
	// NewTrainer validates the configuration (rates, hyper-parameters,
	// scheme geometry), so its refusal is still a rejected invocation.
	tr, err := ddp.NewTrainer(train, test,
		ddp.WithConfig(cfg), ddp.WithHidden(128), ddp.WithRegistry(reg))
	if err != nil {
		return reject("%v", err)
	}

	// Output files open before training: a bad path costs no run.
	var recordFile, metricsFile *os.File
	if *record != "" {
		if recordFile, err = os.Create(*record); err != nil {
			return reject("%v", err)
		}
		defer recordFile.Close()
	}
	if *metrics != "" {
		if metricsFile, err = os.Create(*metrics); err != nil {
			return reject("%v", err)
		}
		defer metricsFile.Close()
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return reject("%v", err)
	}
	defer stopProf()

	res, err := tr.Run()
	if err != nil {
		return fail(err)
	}

	fmt.Fprintf(stdout, "epoch  wall_s   loss    top1    top5    trim_frac\n")
	for _, p := range res.Points {
		fmt.Fprintf(stdout, "%5d  %7.1f  %6.3f  %.4f  %.4f  %.4f\n",
			p.Epoch, p.Wall, p.Loss, p.Top1, p.Top5, p.TrimFrac)
	}
	fmt.Fprintln(stdout, res)

	if recordFile != nil {
		if err := recorder.Transcript.Save(recordFile); err != nil {
			return fail(err)
		}
		if err := recordFile.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "recorded %d packet fates to %s\n",
			len(recorder.Transcript.Events), *record)
	}
	if metricsFile != nil {
		if err := obs.WriteJSONL(metricsFile, reg.Snapshot()); err != nil {
			return fail(err)
		}
		if err := metricsFile.Close(); err != nil {
			return fail(err)
		}
	}
	return 0
}
