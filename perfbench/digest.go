package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/memctrl"
	"repro/internal/sim"
)

// expectedFile holds the recorded outputs every run is checked against:
// per workload, the digest of each simulated run's counters (keyed by
// active cores) and the panel's model error. The panels are deterministic,
// so a change that only makes the simulator faster leaves all of it equal.
const expectedFile = "perfbench/expected.json"

// Expected is the recorded output of one workload's panel.
type Expected struct {
	// Runs maps active cores to the digest of that run's counters.
	Runs map[string]string `json:"runs"`
	// ModelMREPct is the Fig. 5 validation mean relative error in percent.
	ModelMREPct float64 `json:"model_mre_pct"`
}

// counterText is the canonical text of every simulated counter of one run
// that the output check covers: the paper's C(n) split, the miss and
// request counts, the dispatched events, and every memory controller's and
// bus's statistics.
func counterText(res sim.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "total=%d work=%d stall=%d llc=%d offchip=%d remote=%d events=%d\n",
		res.TotalCycles, res.WorkCycles, res.StallCycles, res.LLCMisses,
		res.OffChipRequests, res.RemoteRequests, res.Events)
	writeStats := func(kind string, stats []memctrl.Stats) {
		for i, s := range stats {
			fmt.Fprintf(&b, "%s%d req=%d rowhit=%d wait=%d service=%d busy=%d maxq=%d rejected=%d\n",
				kind, i, s.Requests, s.RowHits, s.TotalWait, s.TotalService, s.BusyCycles, s.MaxQueueLen, s.Rejected)
		}
	}
	writeStats("mc", res.MCStats)
	writeStats("bus", res.BusStats)
	return b.String()
}

// digest is the SHA-256 of counterText, shortened to 16 hex digits.
func digest(res sim.Result) string {
	sum := sha256.Sum256([]byte(counterText(res)))
	return hex.EncodeToString(sum[:8])
}

// checkRuns compares each run's digest with the recorded one and returns
// one line per mismatch (an unrecorded run is a mismatch too).
func checkRuns(want Expected, runs map[int]sim.Result) []string {
	var bad []string
	for cores, res := range runs {
		got := digest(res)
		rec, ok := want.Runs[strconv.Itoa(cores)]
		if !ok || rec != got {
			bad = append(bad, fmt.Sprintf("cores=%d digest %s, recorded %q; counters:\n%s", cores, got, rec, counterText(res)))
		}
	}
	return bad
}

// sameMRE reports whether a panel's model error equals the recorded one.
// It is computed from the deterministic counters by the same arithmetic,
// so the tolerance only absorbs the decimal round trip.
func sameMRE(want, got float64) bool {
	return math.Abs(want-got) <= 1e-9*math.Max(1, math.Abs(want))
}

// loadExpected reads the recorded outputs of every workload.
func loadExpected() (map[string]Expected, error) {
	data, err := os.ReadFile(expectedFile)
	if err != nil {
		return nil, err
	}
	var out map[string]Expected
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("parse %s: %w", expectedFile, err)
	}
	return out, nil
}

// saveExpected writes the recorded outputs of every workload.
func saveExpected(exp map[string]Expected) error {
	data, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedFile, append(data, '\n'), 0o644)
}
