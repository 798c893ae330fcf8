package main

import (
	"fmt"
	"io"
	"math"
)

// values collects one metric of one workload over a set of runs.
func values(reports []*report, workload, name string) []float64 {
	var v []float64
	for _, r := range reports {
		if r.Workload != workload {
			continue
		}
		if m, ok := r.metric(name); ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// agrees reports whether two medians of the same code agree within the
// metric's A/A bound, in either direction: an A/A gap beyond the bound means
// the bound cannot tell a regression from noise. fail_share's bound is
// absolute zero.
func agrees(def metricDef, a, b float64) bool {
	if a == 0 {
		return b == 0
	}
	return math.Abs(b-a)/math.Abs(a) <= def.aaBound()
}

// summaryRow is one workload × metric over a set of runs: the median and
// spread (interquartile range over median, as the accepting driver computes
// it) of set A and, under -aa, of set B, their relative gap, and whether
// the gap is within the bound. Digest rows carry the count of seeds whose
// digest is identical in both sets in MedianA, out of Runs.
type summaryRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Runs     int     `json:"runs"`
	MedianA  float64 `json:"median_a"`
	SpreadA  float64 `json:"spread_a"`
	MedianB  float64 `json:"median_b,omitempty"`
	SpreadB  float64 `json:"spread_b,omitempty"`
	Gap      float64 `json:"gap,omitempty"`
	Bound    float64 `json:"bound,omitempty"`
	Agrees   bool    `json:"agrees"`
}

const digestRow = "digests_identical"

// summarize folds the runs of set a (and of a second set b of the same
// seeds, under -aa) into one row per workload × metric, and reports whether
// every pair of medians and every pair of digests agreed.
func summarize(specs []spec, a, b []*report) (rows []summaryRow, agreed bool) {
	defs := append(append([]metricDef(nil), gatedDefs...), outcomeDefs...)
	if len(a) > 0 && a[0].Pass == passTraced {
		defs = perLayerDefs
	}
	agreed = true
	for _, s := range specs {
		for _, def := range defs {
			va := values(a, s.name, def.Name)
			if len(va) == 0 {
				continue
			}
			row := summaryRow{Workload: s.name, Metric: def.Name, Runs: len(va),
				MedianA: median(va), SpreadA: spread(va), Bound: def.aaBound(), Agrees: true}
			if b != nil {
				vb := values(b, s.name, def.Name)
				row.MedianB, row.SpreadB = median(vb), spread(vb)
				if row.MedianA != 0 {
					row.Gap = (row.MedianB - row.MedianA) / math.Abs(row.MedianA)
				}
				row.Agrees = agrees(def, row.MedianA, row.MedianB)
			}
			rows = append(rows, row)
			agreed = agreed && row.Agrees
		}
		if b != nil {
			same, total := sameDigests(a, b, s.name)
			rows = append(rows, summaryRow{Workload: s.name, Metric: digestRow, Runs: total,
				MedianA: float64(same), Agrees: same == total})
			agreed = agreed && same == total
		}
	}
	return rows, agreed
}

// printSummary prints the rows as one table per workload.
func printSummary(w io.Writer, rows []summaryRow, aa bool) {
	workload := ""
	for _, r := range rows {
		if r.Workload != workload {
			workload = r.Workload
			fmt.Fprintf(w, "== %s\n", workload)
			if aa {
				fmt.Fprintf(w, "  %-20s %5s %14s %14s %9s %9s %9s %7s  %s\n", "metric", "runs", "median A", "median B", "gap", "spread A", "spread B", "bound", "A/A")
			} else {
				fmt.Fprintf(w, "  %-32s %5s %14s %9s\n", "metric", "runs", "median", "spread")
			}
		}
		verdict := "pass"
		if !r.Agrees {
			verdict = "FAIL"
		}
		switch {
		case r.Metric == digestRow:
			fmt.Fprintf(w, "  digests: %.0f of %d seeds identical in both sets  %s\n", r.MedianA, r.Runs, verdict)
		case aa:
			fmt.Fprintf(w, "  %-20s %5d %14.6g %14.6g %+8.2f%% %8.2f%% %8.2f%% %6.0f%%  %s\n",
				r.Metric, r.Runs, r.MedianA, r.MedianB, 100*r.Gap, 100*r.SpreadA, 100*r.SpreadB, 100*r.Bound, verdict)
		default:
			fmt.Fprintf(w, "  %-32s %5d %14.6g %8.2f%%\n", r.Metric, r.Runs, r.MedianA, 100*r.SpreadA)
		}
	}
}

// sameDigests counts the seeds of one workload whose digest is identical
// in both sets.
func sameDigests(a, b []*report, workload string) (same, total int) {
	first := map[uint64]string{}
	for _, r := range a {
		if r.Workload == workload {
			first[r.Seed] = r.Digest
		}
	}
	for _, r := range b {
		if r.Workload != workload {
			continue
		}
		total++
		if first[r.Seed] == r.Digest {
			same++
		}
	}
	return same, total
}
