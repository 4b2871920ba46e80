package corpus

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/cpg"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Spec{Seed: 7})
	b := Generate(Spec{Seed: 7})
	if len(a.Files) != len(b.Files) || len(a.Planned) != len(b.Planned) {
		t.Fatalf("sizes differ: %d/%d files, %d/%d bugs",
			len(a.Files), len(b.Files), len(a.Planned), len(b.Planned))
	}
	for i := range a.Files {
		if a.Files[i].Path != b.Files[i].Path || a.Files[i].Content != b.Files[i].Content {
			t.Fatalf("file %d differs", i)
		}
	}
	c := Generate(Spec{Seed: 8})
	same := true
	for i := range a.Files {
		if i < len(c.Files) && a.Files[i].Content != c.Files[i].Content {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical corpora")
	}
}

func TestPlannedCountsMatchTable5(t *testing.T) {
	c := Generate(Spec{Seed: 1})
	perSubsystem := map[string]int{}
	perPattern := map[PatternID]int{}
	for _, b := range c.Planned {
		perSubsystem[b.Subsystem]++
		perPattern[b.Pattern]++
	}
	// Paper Table 4: arch 156, drivers 182, include 2, net 2, sound 9 (our
	// plan follows the per-row counts; arch rows sum to 157 in the paper's
	// own table).
	wantSub := map[string]int{"arch": 157, "drivers": 182, "include": 2, "net": 2, "sound": 9}
	for sub, want := range wantSub {
		if perSubsystem[sub] != want {
			t.Errorf("%s: planned %d, want %d", sub, perSubsystem[sub], want)
		}
	}
	total := 0
	for _, n := range perSubsystem {
		total += n
	}
	if total != 352 {
		t.Errorf("total planned = %d", total)
	}
	if perPattern["P4"] < 150 {
		t.Errorf("P4 instances = %d, expected the dominant share", perPattern["P4"])
	}
}

func TestImpactShape(t *testing.T) {
	c := Generate(Spec{Seed: 1})
	impacts := map[string]int{}
	for _, b := range c.Planned {
		impacts[b.Impact]++
	}
	if impacts["NPD"] != 7 {
		t.Errorf("NPD = %d, want 7 (Table 4)", impacts["NPD"])
	}
	if impacts["Leak"] < impacts["UAF"]*5 {
		t.Errorf("impact shape off: %+v (leak must dominate)", impacts)
	}
	if impacts["UAF"] < 20 {
		t.Errorf("UAF = %d, too few", impacts["UAF"])
	}
}

// analyze runs core.Analyze, uncached and unconfirmed, over c.
func analyze(t *testing.T, c *Corpus) *core.Run {
	t.Helper()
	var sources []cpg.Source
	for _, f := range c.Files {
		sources = append(sources, cpg.Source{Path: f.Path, Content: f.Content})
	}
	run, err := core.Analyze(context.Background(), core.Request{Sources: sources, Headers: c.Headers})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestCorpusParsesCleanly(t *testing.T) {
	for _, e := range analyze(t, Generate(Spec{Seed: 1})).Unit.Errors {
		t.Errorf("corpus error: %v", e)
	}
}

// TestDetectionRecallPrecision is the central integration check: the nine
// checkers must find every planned bug (matched by function + pattern) and
// report extras only at the seeded false-positive baits.
func TestDetectionRecallPrecision(t *testing.T) {
	c := Generate(Spec{Seed: 1})
	reports := analyze(t, c).Reports

	type key struct {
		fn      string
		pattern string
	}
	got := map[key][]core.Report{}
	for _, r := range reports {
		got[key{r.Function, string(r.Pattern)}] = append(got[key{r.Function, string(r.Pattern)}], r)
	}

	// Recall: every planned bug found.
	missed := 0
	for _, b := range c.Planned {
		if len(got[key{b.Function, string(b.Pattern)}]) == 0 {
			missed++
			if missed <= 10 {
				t.Errorf("missed: %s %s in %s (%s)", b.Pattern, b.Function, b.File, b.API)
			}
		}
	}
	if missed > 0 {
		t.Fatalf("missed %d of %d planned bugs", missed, len(c.Planned))
	}

	// Precision: every report maps to a planned bug or a bait.
	planned := map[string]bool{}
	for _, b := range c.Planned {
		planned[b.Function] = true
	}
	baited := map[string]bool{}
	for _, bb := range c.Baits {
		baited[bb.Function] = true
	}
	var unexpected []core.Report
	baitHits := map[string]bool{}
	for _, r := range reports {
		switch {
		case planned[r.Function]:
		case baited[r.Function]:
			baitHits[r.Function] = true
		default:
			unexpected = append(unexpected, r)
		}
	}
	for _, r := range unexpected {
		t.Errorf("unexpected report: %s", r.String())
	}
	if len(baitHits) != len(c.Baits) {
		t.Errorf("bait hits = %d, want %d (the seeded FP shape must trip the checkers)",
			len(baitHits), len(c.Baits))
	}
}

func TestKLOCPositive(t *testing.T) {
	c := Generate(Spec{Seed: 1})
	if c.KLOC() < 5 {
		t.Errorf("KLOC = %.1f, corpus suspiciously small", c.KLOC())
	}
}
