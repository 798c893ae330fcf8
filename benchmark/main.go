// Command benchmark is trimgrad's repository benchmark: five whole-pipeline
// workloads measured end to end (untraced) and layer by layer (a separate
// traced pass), with every layer timed from outside through its public
// functions. README.md in this directory defines the workloads, metrics
// and bounds; BENCHMARK.json at the repository root is the contract the
// accepting driver reads.
//
//	go run ./benchmark -seed 7                        every workload, end-to-end pass
//	go run ./benchmark -seed 7 -trace 1               every workload, traced per-layer pass
//	go run ./benchmark -workload incast_k8_trim       one workload
//	go run ./benchmark -aa -runs 10 -seed 11          two interleaved sets of the same binary, compared against the bounds
//	go run ./benchmark -trace 1 -handicap transport.rx=5 -workload incast_k8_trim
//
// With -workload the process measures in itself and ends its standard
// output with one JSON result line. Without it the process only drives:
// it re-executes itself once per workload, so peak RSS and pool warm-up
// are per workload and never inherited.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// spec is one row of the workload table.
type spec struct {
	name string
	// iters is the measured loop's iteration count at -seconds refSeconds.
	// The count is the only stopping rule, so both sides of a comparison
	// run the identical input set however fast either is; -seconds scales
	// every count by one factor (iterations). Sized on the 2-core reference
	// box so each measured phase lasts 10-14 s: the issue's 256 exchanges
	// (64 four-scheme cycles) / 48 / 48, and 64 and 12 where its 48 and 10
	// came to under 10 s. Each arm of the traced pass runs a quarter of it.
	iters int
	// verify is how many leading iterations are re-run for the digest checks.
	verify int
	why    string
	build  func(cfg config, seed uint64) workload
}

// workloads is the table: names, iteration counts and why each exists.
var workloads = []spec{
	{"codec_exchange", 64, 1,
		"encode-trim-decode of a 2^20-float gradient cycling sign/sq/sd/rht with no simulator: quant, fwht, wire, core and par do all the work",
		func(cfg config, seed uint64) workload { return &codecWorkload{cfg: cfg, seed: seed} }},
	{"incast_k8_trim", 48, 2,
		"127-to-1 incast on a k=8 fat tree, TrimOverflow + SendTrimmable, 1 shard: the serial event engine and the trim-aware transport around one hot port",
		func(cfg config, seed uint64) workload { return newFabricWorkload(incastTrim, cfg, seed) }},
	{"incast_k8_drop", 48, 2,
		"the same incast with DropTail + SendReliable: the ACK/RTO/AIMD path and drop-tail queues, so a trim-path gain that costs the reliable path shows",
		func(cfg config, seed uint64) workload { return newFabricWorkload(incastDrop, cfg, seed) }},
	{"permute_k8_s2", 64, 2,
		"128 disjoint flows spread over all pods on 2 shards: shard windows, barriers and cross-shard mailboxes carry the run; bypasses hot-port paths",
		func(cfg config, seed uint64) workload { return newFabricWorkload(permute, cfg, seed) }},
	{"train_k4_ps", 12, 1,
		"NetTrainer.Run: 8 workers, k=4 fat tree, parameter-server all-reduce, trimmable RHT: ml, ddp, collective, core, transport and netsim in a user's proportions",
		func(cfg config, seed uint64) workload { return &trainWorkload{cfg: cfg, seed: seed} }},
}

const (
	// devSeed is the seed the benchmark was built and tuned on;
	// noise_floor.json records the held-out one its -aa evidence was
	// produced on (BENCHMARK.json has no key for either).
	devSeed = 7

	// refSeconds is the -seconds (run_seconds in BENCHMARK.json) the table's
	// counts are sized for.
	refSeconds = 12
	setupReps  = 5
	warmups    = 2
	outDir     = "benchmark/out"
)

// iterations scales a table count by seconds/refSeconds, the one factor
// the whole table moves by; at least one iteration always runs.
func iterations(count int, seconds float64) int {
	return max(1, int(math.Round(float64(count)*seconds/refSeconds)))
}

func findSpec(name string) (spec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	jsonPath string
	aa       bool
	runs     int
	handicap string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this workload in-process and end with the JSON result line (default: drive every workload, one process each)")
	flag.Uint64Var(&o.seed, "seed", devSeed, "workload seed; iteration i draws its inputs from xrand.Seed(seed, i)")
	flag.Float64Var(&o.seconds, "seconds", refSeconds, "scales every iteration count by seconds/12: about how long the measured phase lasts on the reference box")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced end-to-end pass; 1: traced per-layer pass")
	flag.StringVar(&o.jsonPath, "json", "", "also write fingerprint, metrics, quartiles and operation counts to this file")
	flag.BoolVar(&o.aa, "aa", false, "run two full end-to-end sets of the same binary, interleaved seed by seed, and compare their medians against the bounds (the noise floor)")
	flag.IntVar(&o.runs, "runs", 1, "with -aa or without -workload: runs per workload, on seeds seed, seed+1, ...")
	flag.StringVar(&o.handicap, "handicap", "", "self-test: <span>=<pct>, busy-wait that share of each span of transport.rx, collective.rx or ml.fwdbwd (traced pass only)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds <= 0 || o.runs < 1 {
		return fmt.Errorf("-seconds and -runs must be positive")
	}
	handicap, err := parseHandicap(o.handicap)
	if err != nil {
		return err
	}
	if len(handicap) > 0 && o.trace != 1 {
		return fmt.Errorf("-handicap lives in the traced wrappers; it needs -trace 1")
	}
	if o.workload == "" || o.aa || o.runs > 1 {
		return drive(o)
	}

	s, ok := findSpec(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	lim := limits{seconds: o.seconds, setupReps: setupReps, warmups: warmups, outDir: outDir}
	var r *report
	if o.trace == 1 {
		r, err = runTraced(s, fullConfig, o.seed, lim, handicap)
	} else {
		r, err = runEndToEnd(s, fullConfig, o.seed, lim)
	}
	if err != nil {
		return err
	}
	r.printHuman(os.Stdout)
	if o.jsonPath != "" {
		doc := document{Fingerprint: readFingerprint(), Seed: o.seed, Reports: []*report{r}}
		if err := writeDocument(o.jsonPath, doc); err != nil {
			return err
		}
	}
	fmt.Println(r.resultLine())
	if r.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", s.name, r.Failed, r.Attempted)
	}
	return nil
}

// handicapSpans are the traced wrappers that implement -handicap.
var handicapSpans = []string{"transport.rx", "collective.rx", "ml.fwdbwd"}

func parseHandicap(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	name, pct, ok := strings.Cut(s, "=")
	v, err := strconv.ParseFloat(pct, 64)
	if !ok || err != nil || v <= 0 {
		return nil, fmt.Errorf("-handicap wants <span>=<pct>, got %q", s)
	}
	for _, known := range handicapSpans {
		if name == known {
			return map[string]float64{name: v / 100}, nil
		}
	}
	return nil, fmt.Errorf("-handicap knows %s, not %q", strings.Join(handicapSpans, ", "), name)
}

// child runs one workload in a fresh process of this same binary and
// returns its report. The child's table goes to our stdout when echo is
// set; its result is read back from a JSON file under outDir.
func child(o options, name string, seed uint64, tag string, echo bool) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("run-%s-%s-%d.json", tag, name, seed))
	args := []string{"-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(o.trace), "-json", path}
	if o.handicap != "" {
		args = append(args, "-handicap", o.handicap)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	if echo {
		cmd.Stdout = os.Stdout
	}
	runErr := cmd.Run() // waits for the child; a failed check exits non-zero but still leaves its report
	doc, err := readDocument(path)
	if err != nil || len(doc.Reports) != 1 {
		return nil, fmt.Errorf("%s seed %d: no report (%v, %v)", name, seed, runErr, err)
	}
	return doc.Reports[0], nil
}

// drive runs every selected workload in a process of its own: once each,
// -runs times each, or (-aa) two such sets.
func drive(o options) error {
	specs := workloads
	if o.workload != "" {
		s, ok := findSpec(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		specs = []spec{s}
	}
	fp := readFingerprint()
	fmt.Printf("cpu=%q cores=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g\n",
		fp.CPU, fp.Cores, fp.GOMAXPROCS, fp.GoVersion, fp.Commit, o.seed, o.seconds)

	if o.aa && o.trace != 0 {
		return fmt.Errorf("-aa compares end-to-end sets; drop -trace")
	}
	doc := document{Fingerprint: fp, Seed: o.seed}
	bySet := map[string][]*report{}
	failed := 0
	for _, s := range specs {
		for k := 0; k < o.runs; k++ {
			// -aa runs each seed once per set, back to back, alternating
			// which set goes first: drift of the box over the half hour the
			// sets take then lands on both alike and cancels in the medians.
			order := []string{"a"}
			if o.aa {
				order = []string{"a", "b"}
				if k%2 == 1 {
					order = []string{"b", "a"}
				}
			}
			for _, set := range order {
				r, err := child(o, s.name, o.seed+uint64(k), set, o.runs == 1 && !o.aa)
				if err != nil {
					return err
				}
				failed += r.Failed
				doc.Reports = append(doc.Reports, r)
				bySet[set] = append(bySet[set], r)
			}
		}
	}
	agreed := true
	if o.runs > 1 || o.aa {
		doc.Summary, agreed = summarize(specs, bySet["a"], bySet["b"])
		printSummary(os.Stdout, doc.Summary, o.aa)
	}
	if o.jsonPath != "" {
		if err := writeDocument(o.jsonPath, doc); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	if !agreed {
		return fmt.Errorf("A/A sets disagree beyond the bounds")
	}
	return nil
}
