package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke builds the benchmark and reproserve, runs each workload at
// smoke size untraced and traced, and checks that each metric named in
// BENCHMARK.json is printed with its unit, that no operation failed and
// that every result was right.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bench, serve := filepath.Join(dir, "perfbench"), filepath.Join(dir, "reproserve")
	for _, b := range [][]string{{".", bench}, {"../cmd/reproserve", serve}} {
		cmd := exec.Command("go", "build", "-o", b[1], b[0])
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", b[0], err, out)
		}
	}

	// serve is not in BENCHMARK.json (see README.md) but reports the same
	// metrics.
	for _, w := range []string{"fanin", "fib", "serve"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				cmd := exec.Command(bench, "--smoke", "--workload", w, "--seed", "7",
					"--seconds", "1", "--trace", trace, "--serve-bin", serve, "--out", dir)
				var stdout, stderr bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("%v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
				}
				if !regexp.MustCompile(`(?m)^failed_frac +0 ratio$`).MatchString(stdout.String()) {
					t.Errorf("failed_frac is not printed as 0")
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
					line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.Name) + ` +\S+ ` + regexp.QuoteMeta(m.Unit) + `$`)
					if !line.MatchString(stdout.String()) {
						t.Errorf("metric %s is not printed with its unit %s", m.Name, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result has %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
			})
		}
	}
}
