package analysis

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSarifGolden pins the `trimlint -json` SARIF schema: field names,
// nesting, the rule table, and root-relative URI rewriting. Regenerate
// with UPDATE_GOLDEN=1 after a deliberate schema change.
func TestSarifGolden(t *testing.T) {
	diags := []Diagnostic{
		{
			Check:   "poolownership",
			File:    filepath.Join(string(filepath.Separator)+"mod", "internal", "netsim", "network.go"),
			Line:    293,
			Col:     40,
			Message: "pooled value in parameter pkt escapes: appended to a slice",
		},
		{
			Check:   "directive",
			File:    filepath.Join(string(filepath.Separator)+"mod", "internal", "wire", "pack.go"),
			Line:    7,
			Col:     1,
			Message: "trimlint:allow directive names no check",
		},
	}
	log := ToSarif(string(filepath.Separator)+"mod", diags)
	got, err := json.MarshalIndent(log, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "golden", "sarif.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("SARIF output drifted from golden file %s\ngot:\n%s\nwant:\n%s\n(regenerate with UPDATE_GOLDEN=1 if the change is deliberate)", golden, got, want)
	}
}

// TestSarifRuleIndex checks that every result's ruleIndex points at its
// own rule, whatever the table order.
func TestSarifRuleIndex(t *testing.T) {
	diags := []Diagnostic{{Check: "wallclock", File: "x.go", Line: 1, Col: 1, Message: "m"}}
	log := ToSarif("", diags)
	run := log.Runs[0]
	for _, res := range run.Results {
		if run.Tool.Driver.Rules[res.RuleIndex].ID != res.RuleID {
			t.Errorf("result ruleIndex %d points at %q, want %q",
				res.RuleIndex, run.Tool.Driver.Rules[res.RuleIndex].ID, res.RuleID)
		}
	}
}
