package analysis

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"slices"
)

// The suppression ratchet: //lint:ignore vetrnn/* directives are a budget,
// not a convenience. A committed baseline records how many suppressions
// each analyzer is allowed; CI fails when the tree spends more or less than
// its row (a deleted suppression lowers the row in the same change), on a
// row naming an analyzer the suite no longer has, and on *stale* directives
// — comments naming an analyzer that no longer fires on the covered lines,
// which would otherwise silently pre-suppress the next finding there.

// Baseline is the committed suppression budget (VETRNN_BASELINE.json).
type Baseline struct {
	// Comment documents how to refresh the file.
	Comment string `json:"_comment,omitempty"`
	// Suppressions maps analyzer name -> allowed directive-name count.
	Suppressions map[string]int `json:"suppressions"`
}

// ReadBaseline loads a committed baseline file.
func ReadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	b := new(Baseline)
	if err := json.Unmarshal(data, b); err != nil {
		return nil, fmt.Errorf("parse baseline %s: %w", path, err)
	}
	if b.Suppressions == nil {
		b.Suppressions = map[string]int{}
	}
	return b, nil
}

// WriteBaseline writes the baseline for the given directive set.
func WriteBaseline(path string, directives []Directive) error {
	b := Baseline{
		Comment:      "suppression ratchet baseline; refresh with `go run ./cmd/vetrnn -ratchet <this file> -ratchet-write ./...`",
		Suppressions: CountSuppressions(directives),
	}
	data, err := json.MarshalIndent(&b, "", "\t")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o666)
}

// CountSuppressions tallies directives per claimed analyzer name (a
// directive naming two analyzers counts once under each).
func CountSuppressions(directives []Directive) map[string]int {
	counts := map[string]int{}
	for _, d := range directives {
		for _, n := range d.Names {
			counts[n]++
		}
	}
	return counts
}

// RatchetViolation is one way the tree's suppressions fail the ratchet.
type RatchetViolation struct {
	// Analyzer is the claimed analyzer name.
	Analyzer string
	// Stale, when valid, positions a directive whose named analyzer
	// suppressed nothing in this run; when zero, the violation is a name
	// outside the suite (Unknown) or a Count that differs from Allowed.
	Stale          string
	Unknown        bool
	Count, Allowed int
}

func (v RatchetViolation) String() string {
	switch {
	case v.Stale != "":
		return fmt.Sprintf("%s: stale suppression: vetrnn/%s does not fire on the covered lines; delete the directive", v.Stale, v.Analyzer)
	case v.Count > v.Allowed:
		return fmt.Sprintf("ratchet: %d vetrnn/%s suppressions exceed the baseline of %d; fix the finding or raise the committed baseline deliberately", v.Count, v.Analyzer, v.Allowed)
	case v.Unknown:
		return fmt.Sprintf("ratchet: the baseline has a row for vetrnn/%s, which is not in the suite; delete the row", v.Analyzer)
	}
	return fmt.Sprintf("ratchet: the baseline allows %d vetrnn/%s suppressions, the tree has %d; lower the row to %d", v.Allowed, v.Analyzer, v.Count, v.Count)
}

// Ratchet checks the run's directives against the baseline. suite maps
// every analyzer of the suite to whether it ran: stale detection only
// applies to those that ran (a disabled analyzer's suppressions cannot be
// judged), while every baseline row and claimed name must be in the suite
// and its count match exactly. Violations come back sorted, stale first.
func Ratchet(b *Baseline, directives []Directive, suite map[string]bool) []RatchetViolation {
	var out []RatchetViolation
	for _, d := range directives {
		for _, n := range d.Names {
			if suite[n] && d.Suppressed[n] == 0 {
				out = append(out, RatchetViolation{Analyzer: n, Stale: d.Pos.String()})
			}
		}
	}
	counts := CountSuppressions(directives)
	for n := range b.Suppressions {
		counts[n] += 0 // a row the tree no longer spends is judged too
	}
	for _, n := range slices.Sorted(maps.Keys(counts)) {
		_, known := suite[n]
		v := RatchetViolation{Analyzer: n, Count: counts[n], Allowed: b.Suppressions[n], Unknown: !known}
		if v.Count != v.Allowed || v.Unknown {
			out = append(out, v)
		}
	}
	return out
}
