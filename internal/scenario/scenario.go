// Package scenario is the declarative end-to-end test harness: it
// drives a real tagserve process — its own binary, its own pid, killed
// with real signals — through declared scripts of steps, and asserts on
// what only a process boundary can show (replay after kill -9, torn WAL
// tails, flock refusal of a second writer, 4xx-never-500 behavior under
// hostile input, sustained skewed load).
//
// The design is a declared matrix in the shape of oc-mirror's TESTCASES
// e2e runner: each Scenario is a short table entry — a name, a tier,
// and a list of Steps — and the step vocabulary (start, kill, restart,
// write, query, corrupt bytes, fuzz request, load stream, stat
// assertion) is closed and reusable, so covering the next feature costs
// a new table row, never new runner code. Matrix() holds the rows;
// cmd/tagscenario executes them.
//
// Every scenario runs in its own scratch directory with its own server
// processes; `{dir}` inside step flags and paths expands to that
// directory, which is how rows share a WAL dir across restarts without
// naming absolute paths.
package scenario

import (
	"fmt"
	"regexp"
)

// Tier classifies a scenario by cost. Quick rows finish in a few
// seconds at tiny scale and run in CI on every push; Full rows add
// longer load windows and bigger scales for release-level soak.
type Tier int

const (
	// Quick scenarios are the CI smoke matrix.
	Quick Tier = iota
	// Full scenarios include everything Quick plus the heavier rows.
	Full
)

// String names the tier for reports and flags.
func (t Tier) String() string {
	if t == Quick {
		return "quick"
	}
	return "full"
}

// Scenario is one declared end-to-end script: a real tagserve (or
// several, named) driven through Steps in order. A step error fails the
// scenario at that step; assertions are steps like any other.
type Scenario struct {
	Name  string
	Tier  Tier
	Doc   string // one-line intent, shown by -list and in failure reports
	Steps []Step
}

// Step is one unit of a scenario script. Implementations are small
// declarative structs (Start, Kill, Write, Query, CorruptFile, Load,
// ...) — a scenario author composes them, never subclasses the runner.
type Step interface {
	// Describe renders the step for logs and failure messages.
	Describe() string
	// Run executes the step against the scenario's Ctx.
	Run(c *Ctx) error
}

// Select filters scenarios: rows at or below tier whose name matches
// pattern (empty pattern = all). An invalid pattern is an error.
func Select(rows []Scenario, tier Tier, pattern string) ([]Scenario, error) {
	var re *regexp.Regexp
	if pattern != "" {
		var err error
		if re, err = regexp.Compile(pattern); err != nil {
			return nil, fmt.Errorf("scenario: bad -run pattern: %w", err)
		}
	}
	var out []Scenario
	for _, s := range rows {
		if s.Tier > tier {
			continue
		}
		if re != nil && !re.MatchString(s.Name) {
			continue
		}
		out = append(out, s)
	}
	return out, nil
}
