package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Provenance says what produced a result and on what host. Results are
// comparable only at equal CPUModel and GOMAXPROCS.
type Provenance struct {
	// GitRev is the commit when the tree is a git checkout, "none" when not.
	GitRev string `json:"git_rev"`
	// Tree digests go.mod and every file under internal/, so two checkouts
	// of one commit agree without git.
	Tree       string `json:"tree"`
	Build      string `json:"build"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Time       string `json:"time"`
}

func provenance() (Provenance, error) {
	p := Provenance{
		GitRev:     "none",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	wd, err := os.Getwd()
	if err != nil {
		return Provenance{}, err
	}
	git := exec.Command("git", "rev-parse", "HEAD")
	// Only the checkout itself may say which commit it is.
	git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	if out, err := git.Output(); err == nil {
		p.GitRev = strings.TrimSpace(string(out))
	}
	if p.Tree, err = treeDigest(); err != nil {
		return Provenance{}, err
	}
	exe, err := os.Executable()
	if err != nil {
		return Provenance{}, err
	}
	if p.Build, err = fileDigest(exe); err != nil {
		return Provenance{}, err
	}
	return p, nil
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func treeDigest() (string, error) {
	h := sha256.New()
	files := []string{"go.mod"}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(name), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// benchmarkFile is the part of BENCHMARK.json compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(data, &bf)
}

// comparable reports why two results may not be compared, or "" when they
// may.
func comparable(a, b Provenance) string {
	switch {
	case a.CPUModel != b.CPUModel:
		return fmt.Sprintf("CPU model %q vs %q", a.CPUModel, b.CPUModel)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	}
	return ""
}

// compare prints, per workload and end-to-end metric, the median and
// spread of the untraced runs in two runs.jsonl files and whether the
// candidate is worse than the baseline by more than the metric's bound.
// It refuses files taken on another CPU model or at another GOMAXPROCS.
func compare(w io.Writer, basePath, candPath string) error {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	cand, err := readRecords(candPath)
	if err != nil {
		return err
	}
	if len(base) == 0 || len(cand) == 0 {
		return fmt.Errorf("nothing to compare")
	}
	for _, r := range append(base[1:], cand...) {
		if why := comparable(base[0].Provenance, r.Provenance); why != "" {
			return fmt.Errorf("refusing to compare results from different hosts: %s", why)
		}
	}
	group := func(recs []Record) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, r := range recs {
			if r.Trace {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for k, m := range r.Metrics {
				out[r.Workload][k] = append(out[r.Workload][k], m.Value)
			}
		}
		return out
	}
	gb, gc := group(base), group(cand)
	var names []string
	for name := range gc {
		names = append(names, name)
	}
	sort.Strings(names)
	regressions := 0
	for _, wl := range names {
		if gb[wl] == nil {
			continue
		}
		fmt.Fprintf(w, "%s (runs: base %d, candidate %d)\n", wl, len(gb[wl]["setup_s"]), len(gc[wl]["setup_s"]))
		for _, m := range bf.EndToEnd {
			_, bm, _ := quartiles(gb[wl][m.Name])
			_, cm, _ := quartiles(gc[wl][m.Name])
			worse := (cm - bm) / math.Abs(bm)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "WORSE"
				regressions++
			}
			fmt.Fprintf(w, "  %-26s base %12.5g (spread %5.3f)  cand %12.5g (spread %5.3f)  worse %+6.3f bound %.3f %s\n",
				m.Name, bm, spread(gb[wl][m.Name]), cm, spread(gc[wl][m.Name]), worse, m.Bound, verdict)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d metrics worse than their bound", regressions)
	}
	return nil
}
