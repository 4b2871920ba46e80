package main

import (
	"bufio"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/difftest"
)

// readTruth loads a refgen GROUND_TRUTH.tsv (single-release format) into the
// planned-bug and bait lists difftest scores against.
func readTruth(path string) (*corpus.Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t := &corpus.Corpus{}
	sc := bufio.NewScanner(f)
	for line := 0; sc.Scan(); line++ {
		if line == 0 {
			continue // header
		}
		c := strings.Split(sc.Text(), "\t")
		if len(c) < 8 {
			return nil, fmt.Errorf("%s:%d: %d columns, want 8", path, line+1, len(c))
		}
		if c[0] == "FP-bait" {
			t.Baits = append(t.Baits, corpus.FalsePositiveBait{Subsystem: c[3], Module: c[4], File: c[5], Function: c[6]})
			continue
		}
		t.Planned = append(t.Planned, corpus.PlannedBug{
			Pattern: corpus.PatternID(c[0]), Kind: corpus.BugKind(c[1]), Impact: c[2],
			Subsystem: c[3], Module: c[4], File: c[5], Function: c[6], API: c[7],
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(t.Planned) == 0 {
		return nil, fmt.Errorf("%s: no planned bugs", path)
	}
	return t, nil
}

// reportLine matches one diagnostic line of refcheck's text output:
// "file:line:col: [P4/Leak] api in function: message".
var reportLine = regexp.MustCompile(`^(\S+):(\d+):(\d+): \[(P\d+)/\w+\] \S* in ([A-Za-z_]\w*): `)

var summaryLine = regexp.MustCompile(`^(\d+) reports`)

// parseText recovers each report's pattern, function and file from
// refcheck's default text output, and checks the listing against the
// summary line's report count.
func parseText(out string) ([]core.Report, error) {
	lines := strings.Split(out, "\n")
	var reps []core.Report
	i := 0
	for ; i < len(lines) && lines[i] != ""; i++ {
		if strings.HasPrefix(lines[i], "    suggestion: ") {
			continue
		}
		m := reportLine.FindStringSubmatch(lines[i])
		if m == nil {
			return nil, fmt.Errorf("unparsable report line %q", lines[i])
		}
		reps = append(reps, core.Report{Pattern: core.Pattern(m[4]), Function: m[5], File: m[1]})
	}
	if i+1 >= len(lines) {
		return nil, fmt.Errorf("no summary after %d report lines", len(reps))
	}
	m := summaryLine.FindStringSubmatch(lines[i+1])
	if m == nil {
		return nil, fmt.Errorf("unparsable summary line %q", lines[i+1])
	}
	if n, _ := strconv.Atoi(m[1]); n != len(reps) {
		return nil, fmt.Errorf("summary counts %d reports, listing has %d", n, len(reps))
	}
	return reps, nil
}

// checkReports verifies one tree's reports against its ground truth, joined
// on (function, pattern) as difftest scores them: every planned bug must be
// reported, and a report outside the plan is allowed only on a seeded bait.
func checkReports(truth *corpus.Corpus, reps []core.Report) error {
	bait := map[string]bool{}
	for _, b := range truth.Baits {
		bait[b.Function] = true
	}
	var kept []core.Report
	for _, r := range reps {
		if !bait[r.Function] {
			kept = append(kept, r)
		}
	}
	sc := difftest.ComputeScores(truth, 0, kept)
	if sc.Overall.FN > 0 {
		return fmt.Errorf("%d of %d planned bugs not reported", sc.Overall.FN, sc.Planned)
	}
	if sc.Overall.FP > 0 {
		return fmt.Errorf("%d (function, pattern) pairs reported outside the plan and the baits", sc.Overall.FP)
	}
	return nil
}

// checkText parses refcheck text output and checks it against truth.
func checkText(truth *corpus.Corpus, out string) error {
	reps, err := parseText(out)
	if err != nil {
		return err
	}
	return checkReports(truth, reps)
}
