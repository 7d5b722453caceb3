package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// envBlock says what produced a results file. `compare` refuses two
// files that differ in anything here but the commit and the seed.
type envBlock struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Sizing     sizing  `json:"sizing"`
}

// runRecord is one child process's result.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Traced   bool    `json:"traced"`
	WallS    float64 `json:"wall_s"`
	result
}

type resultsFile struct {
	Env  envBlock    `json:"env"`
	Runs []runRecord `json:"runs"`
}

func currentEnv(ctx context.Context, seed int64, seconds float64) envBlock {
	env := envBlock{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: cpuModel(),
		GoVersion: runtime.Version(), Commit: "unknown", Seed: seed, Seconds: seconds, Sizing: fullSizing,
	}
	// Outside a git checkout (the driver's copy is one) the commit stays unknown.
	if out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
		if st, err := exec.CommandContext(ctx, "git", "status", "--porcelain").Output(); err == nil {
			env.Dirty = len(bytes.TrimSpace(st)) > 0
		}
	}
	return env
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runSuite runs every workload in a child process of its own — its own
// heap, GC state and peak RSS — untraced first and then traced, and
// writes the results file. GOMAXPROCS is whatever the box gives; the
// harness never sets it.
func runSuite(ctx context.Context, seed int64, seconds float64, runs int, out string, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultsFile{Env: currentEnv(ctx, seed, seconds)}
	var failed []string
	for _, traced := range []bool{false, true} {
		for _, wl := range workloads {
			for r := 0; r < runs; r++ {
				rec := runRecord{Workload: wl.Name, Seed: seed + int64(r), Traced: traced}
				trace := "0"
				if traced {
					trace = "1"
				}
				fmt.Fprintf(stdout, "== %s  seed %d  trace %s\n", rec.Workload, rec.Seed, trace)
				cmd := exec.CommandContext(ctx, exe, "-workload", rec.Workload, "-seed", strconv.FormatInt(rec.Seed, 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace)
				var buf bytes.Buffer
				cmd.Stdout = io.MultiWriter(stdout, &buf)
				cmd.Stderr = stderr
				t0 := time.Now()
				runErr := cmd.Run()
				rec.WallS = time.Since(t0).Seconds()
				fmt.Fprintf(stdout, "-- %s wall %.1f s\n", rec.Workload, rec.WallS)

				// A failed child may still have printed a result (correct:
				// false); keep it, and fail the suite either way.
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				parseErr := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.result)
				if parseErr == nil {
					file.Runs = append(file.Runs, rec)
				}
				if runErr != nil || parseErr != nil {
					if err := ctx.Err(); err != nil {
						return err
					}
					failed = append(failed, fmt.Sprintf("%s (seed %d, trace %s)", rec.Workload, rec.Seed, trace))
				}
			}
		}
	}

	if err := writeResults(out, &file); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "results written to %s\n", out)
	if len(failed) > 0 {
		return fmt.Errorf("failed runs: %s", strings.Join(failed, ", "))
	}
	return nil
}

// writeResults stores the file with one run per line, so that a diff of
// two results files lines up run by run.
func writeResults(path string, file *resultsFile) error {
	env, err := json.Marshal(file.Env)
	if err != nil {
		return err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\"env\": %s,\n\"runs\": [", env)
	for i, r := range file.Runs {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "\n%s", line)
	}
	b.WriteString("\n]}\n")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}
