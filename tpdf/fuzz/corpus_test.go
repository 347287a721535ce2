package fuzz

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/gen"
	"repro/tpdf"
)

// A corpus entry is a pair of plain-text files sharing a stem:
// <name>.tpdf holds the graph (canonical Format text) and
// <name>.schedule the schedule (canonical String text). Plain text keeps
// counterexamples reviewable in diffs and editable by hand.

// CorpusEntry is one loaded corpus case.
type CorpusEntry struct {
	Name string
	Case *Case
}

// WriteCase writes the case into dir as a corpus entry named name,
// creating dir if needed.
func WriteCase(dir, name string, c *Case) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".tpdf"), []byte(tpdf.Format(c.Graph)), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".schedule"), []byte(c.Schedule.String()), 0o644)
}

// LoadCorpus reads every graph/schedule pair in dir, sorted by name. A
// missing directory is an empty corpus; a .tpdf file without its
// .schedule twin (or vice versa) is an error — half a counterexample
// silently replaying as nothing is how regressions sneak back in.
func LoadCorpus(dir string) ([]CorpusEntry, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	graphs := map[string]bool{}
	schedules := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		switch {
		case strings.HasSuffix(e.Name(), ".tpdf"):
			graphs[strings.TrimSuffix(e.Name(), ".tpdf")] = true
		case strings.HasSuffix(e.Name(), ".schedule"):
			schedules[strings.TrimSuffix(e.Name(), ".schedule")] = true
		}
	}
	var names []string
	for name := range graphs {
		if !schedules[name] {
			return nil, fmt.Errorf("fuzz: corpus entry %s has a graph but no schedule", name)
		}
		names = append(names, name)
	}
	for name := range schedules {
		if !graphs[name] {
			return nil, fmt.Errorf("fuzz: corpus entry %s has a schedule but no graph", name)
		}
	}
	sort.Strings(names)

	out := make([]CorpusEntry, 0, len(names))
	for _, name := range names {
		gSrc, err := os.ReadFile(filepath.Join(dir, name+".tpdf"))
		if err != nil {
			return nil, err
		}
		g, err := tpdf.Parse(string(gSrc))
		if err != nil {
			return nil, fmt.Errorf("fuzz: corpus %s: %w", name+".tpdf", err)
		}
		sSrc, err := os.ReadFile(filepath.Join(dir, name+".schedule"))
		if err != nil {
			return nil, err
		}
		sched, err := gen.ParseSchedule(string(sSrc))
		if err != nil {
			return nil, fmt.Errorf("fuzz: corpus %s: %w", name+".schedule", err)
		}
		out = append(out, CorpusEntry{Name: name, Case: &Case{Seed: sched.Seed, Graph: g, Schedule: sched}})
	}
	return out, nil
}
