package analysis

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func dir(names []string, suppressed map[string]int) Directive {
	return Directive{
		Pos:        token.Position{Filename: "x.go", Line: 1},
		Names:      names,
		Suppressed: suppressed,
	}
}

func TestRatchetClean(t *testing.T) {
	b := &Baseline{Suppressions: map[string]int{"execpoll": 2}}
	directives := []Directive{
		dir([]string{"execpoll"}, map[string]int{"execpoll": 1}),
		dir([]string{"execpoll"}, map[string]int{"execpoll": 3}),
	}
	if v := Ratchet(b, directives, map[string]bool{"execpoll": true}); len(v) != 0 {
		t.Fatalf("clean tree produced violations: %v", v)
	}
}

func TestRatchetOverrun(t *testing.T) {
	b := &Baseline{Suppressions: map[string]int{"execpoll": 1}}
	directives := []Directive{
		dir([]string{"execpoll"}, map[string]int{"execpoll": 1}),
		dir([]string{"execpoll"}, map[string]int{"execpoll": 1}),
	}
	v := Ratchet(b, directives, map[string]bool{"execpoll": true})
	if len(v) != 1 {
		t.Fatalf("want 1 violation, got %v", v)
	}
	if v[0].Stale != "" || v[0].Count != 2 || v[0].Allowed != 1 {
		t.Fatalf("want count overrun 2>1, got %+v", v[0])
	}
	if !strings.Contains(v[0].String(), "exceed the baseline") {
		t.Fatalf("overrun message: %q", v[0].String())
	}
}

func TestRatchetStale(t *testing.T) {
	b := &Baseline{Suppressions: map[string]int{"execpoll": 1, "guardedby": 1}}
	directives := []Directive{
		// Claims two names; only one fired. The other is stale.
		dir([]string{"execpoll", "guardedby"}, map[string]int{"execpoll": 1}),
	}
	v := Ratchet(b, directives, map[string]bool{"execpoll": true, "guardedby": true})
	if len(v) != 1 {
		t.Fatalf("want 1 stale violation, got %v", v)
	}
	if v[0].Analyzer != "guardedby" || v[0].Stale == "" {
		t.Fatalf("want stale guardedby, got %+v", v[0])
	}
	if !strings.Contains(v[0].String(), "stale suppression") {
		t.Fatalf("stale message: %q", v[0].String())
	}
}

func TestRatchetStaleIgnoredForInactiveAnalyzer(t *testing.T) {
	b := &Baseline{Suppressions: map[string]int{"guardedby": 1}}
	directives := []Directive{
		dir([]string{"guardedby"}, map[string]int{}),
	}
	// guardedby did not run, so its zero-count directive cannot be judged.
	if v := Ratchet(b, directives, map[string]bool{"execpoll": true, "guardedby": false}); len(v) != 0 {
		t.Fatalf("inactive analyzer judged stale: %v", v)
	}
}

func TestRatchetUnknownAnalyzerCountsAgainstZero(t *testing.T) {
	b := &Baseline{Suppressions: map[string]int{}}
	directives := []Directive{
		dir([]string{"execpoll"}, map[string]int{"execpoll": 1}),
	}
	v := Ratchet(b, directives, map[string]bool{"execpoll": true})
	if len(v) != 1 || v[0].Allowed != 0 || v[0].Count != 1 {
		t.Fatalf("want 1>0 overrun against empty baseline, got %v", v)
	}
}

// TestRatchetUnspentRow: a row allowing more than the tree spends fails
// and says which row to lower — else the unspent budget would wait for the
// next suppression — even when the analyzer did not run.
func TestRatchetUnspentRow(t *testing.T) {
	b := &Baseline{Suppressions: map[string]int{"execpoll": 3, "guardedby": 2}}
	directives := []Directive{
		dir([]string{"execpoll"}, map[string]int{"execpoll": 1}),
		dir([]string{"execpoll"}, map[string]int{"execpoll": 1}),
		dir([]string{"guardedby"}, map[string]int{}),
		dir([]string{"guardedby"}, map[string]int{}),
	}
	v := Ratchet(b, directives, map[string]bool{"execpoll": true, "guardedby": false})
	if len(v) != 1 || v[0].Analyzer != "execpoll" || v[0].Count != 2 || v[0].Allowed != 3 {
		t.Fatalf("want the execpoll row 3 > 2 flagged alone, got %+v", v)
	}
	if msg := v[0].String(); !strings.Contains(msg, "lower the row to 2") {
		t.Fatalf("unspent-row message does not say which row to lower: %q", msg)
	}
}

// TestRatchetRowOutsideSuite: a row naming an analyzer the suite does not
// have fails, whether or not directives still spend it.
func TestRatchetRowOutsideSuite(t *testing.T) {
	b := &Baseline{Suppressions: map[string]int{"execpoll": 1, "retired": 6, "spent": 1}}
	directives := []Directive{
		dir([]string{"execpoll"}, map[string]int{"execpoll": 1}),
		dir([]string{"spent"}, map[string]int{}),
	}
	v := Ratchet(b, directives, map[string]bool{"execpoll": true, "guardedby": true})
	if len(v) != 2 || v[0].Analyzer != "retired" || v[1].Analyzer != "spent" || !v[0].Unknown || !v[1].Unknown {
		t.Fatalf("want the retired and spent rows flagged as outside the suite, got %+v", v)
	}
	for _, x := range v {
		if msg := x.String(); !strings.Contains(msg, "not in the suite") || !strings.Contains(msg, "vetrnn/"+x.Analyzer) {
			t.Fatalf("outside-suite message: %q", msg)
		}
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	directives := []Directive{
		dir([]string{"execpoll"}, map[string]int{"execpoll": 1}),
		dir([]string{"execpoll", "guardedby"}, map[string]int{"execpoll": 1, "guardedby": 2}),
	}
	if err := WriteBaseline(path, directives); err != nil {
		t.Fatal(err)
	}
	b, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Suppressions["execpoll"] != 2 || b.Suppressions["guardedby"] != 1 {
		t.Fatalf("round-tripped counts wrong: %v", b.Suppressions)
	}
	if b.Comment == "" {
		t.Fatal("baseline comment (refresh instructions) missing")
	}
	data, _ := os.ReadFile(path)
	if !strings.HasSuffix(string(data), "\n") {
		t.Fatal("baseline file should end in a newline")
	}
}
