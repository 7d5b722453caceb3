package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	rpprof "runtime/pprof"
	"strings"

	"parallellives/internal/asn"
	"parallellives/internal/collector"
	"parallellives/internal/dates"
	"parallellives/internal/obs"
	"parallellives/internal/pipeline"
	"parallellives/internal/registry"
	"parallellives/internal/report"
	"parallellives/internal/stream"
	"parallellives/internal/worldsim"
)

var runUsage = `parallellives run [flags]

Runs the full reproduction pipeline (Figure 1 of the paper): it
simulates the ground-truth world, renders and restores the delegation
archive, scans the simulated collectors, builds both lifetime
dimensions, and regenerates the paper's tables and figures on stdout.

-experiments takes a comma list of:
  ` + strings.Join(experimentNames(), ", ") + `
— or 'all', or 'none'.
`

func experimentNames() []string {
	names := make([]string, len(report.Experiments))
	for i, e := range report.Experiments {
		names[i] = e.Name
	}
	return names
}

// chooseExperiments resolves an -experiments value to table entries, in
// the table's order whatever order they were named in. A name the table
// does not have is an error, not an empty selection.
func chooseExperiments(list string) ([]report.Experiment, error) {
	known := map[string]bool{"all": true, "none": true, "": true}
	for _, e := range report.Experiments {
		known[e.Name] = true
	}
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if !known[name] {
			return nil, fmt.Errorf("unknown experiment %q: want all, none, or any of %s", name, strings.Join(experimentNames(), ", "))
		}
		want[name] = true
	}
	var chosen []report.Experiment
	for _, e := range report.Experiments {
		if want["all"] || want[e.Name] {
			chosen = append(chosen, e)
		}
	}
	return chosen, nil
}

func runVerb(fs *flag.FlagSet, pf *pipelineFlags) verbBody {
	var (
		experiments = fs.String("experiments", "all", "comma list of experiments (named above), or 'all', or 'none'")
		datasets    = fs.String("datasets", "", "write the Listing-1 JSON datasets into this directory")
		snapshotOut = fs.String("snapshot-out", "", "write a lifestore snapshot of the run to this path (servable by the serve verb)")
		exportMRT   = fs.String("export-mrt", "", "export one day's MRT archives into -out as a tail day directory (YYYY-MM-DD)")
		exportFiles = fs.String("export-files", "", "export one day's delegation files into -out (YYYY-MM-DD)")
		outDir      = fs.String("out", ".", "output directory for exports")
		lookupASN   = fs.Uint64("asn", 0, "print one ASN's parallel lives and exit")
		stageReport = fs.Bool("stage-report", false, "print a per-stage duration and record-flow table after the run")
		profileOut  = fs.String("profile-out", "", "write cpu.pprof, heap.pprof and allocs.pprof into this directory (the build is profiled; reporting is not)")
	)
	return func(ctx context.Context, _ []string, stdout, stderr io.Writer) error {
		chosen, err := chooseExperiments(*experiments)
		if err != nil {
			return usageError(fs, "%v", err)
		}
		opts := pf.options()
		if *stageReport {
			opts.Obs = obs.New()
		}

		var stopProfiles func() error
		if *profileOut != "" {
			var err error
			if stopProfiles, err = startProfiles(*profileOut, stderr); err != nil {
				return err
			}
		}
		ds, err := buildDataset(ctx, opts, stderr)
		if stopProfiles != nil {
			// Profiles cover exactly the build, success or failure: the CPU
			// profile stops here and the heap/allocs profiles capture the
			// dataset while it is still fully resident.
			if perr := stopProfiles(); perr != nil && err == nil {
				err = perr
			}
		}
		if err != nil {
			return err
		}
		if *stageReport {
			fmt.Fprint(stdout, obs.StageTable(ds.Trace))
		}

		if *datasets != "" {
			if err := writeDatasets(ds, *datasets, stderr); err != nil {
				return err
			}
		}
		if *snapshotOut != "" {
			if _, err := saveSnapshot(ds, *snapshotOut, stderr); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "serve it with: parallellives serve -listen :8080 -snapshot %s\n", *snapshotOut)
		}
		if *exportMRT != "" {
			if err := doExportMRT(ctx, opts.World, *exportMRT, *outDir, stderr); err != nil {
				return err
			}
		}
		if *exportFiles != "" {
			if err := doExportFiles(opts.World, *exportFiles, *outDir, stderr); err != nil {
				return err
			}
		}

		if *lookupASN != 0 {
			printASN(stdout, ds, asn.ASN(*lookupASN))
			return nil
		}

		for _, e := range chosen {
			fmt.Fprintln(stdout, e.Render(ds))
		}
		return nil
	}
}

// startProfiles begins a CPU profile in dir and returns the stop func
// that ends it and writes the heap and allocs profiles next to it
// (-profile-out is the one way to take a profile of a pipeline run).
func startProfiles(dir string, stderr io.Writer) (func() error, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpu, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := rpprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, err
	}
	return func() error {
		rpprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			return err
		}
		// A GC first, so the heap profile shows live retention rather
		// than garbage awaiting collection.
		runtime.GC()
		for _, p := range []string{"heap", "allocs"} {
			f, err := os.Create(filepath.Join(dir, p+".pprof"))
			if err != nil {
				return err
			}
			if err := rpprof.Lookup(p).WriteTo(f, 0); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		fmt.Fprintf(stderr, "profiles written to %s (cpu.pprof, heap.pprof, allocs.pprof)\n", dir)
		return nil
	}, nil
}

// printASN prints one ASN's parallel lives — the Listing 1 view.
func printASN(out io.Writer, ds *pipeline.Dataset, a asn.ASN) {
	admins := ds.Admin.Of(a)
	ops := ds.Ops.Of(a)
	if len(admins) == 0 && len(ops) == 0 {
		fmt.Fprintf(out, "AS%s: never allocated and never seen in BGP\n", a)
		return
	}
	fmt.Fprintf(out, "AS%s\n", a)
	for _, ai := range admins {
		al := ds.Admin.Lifetimes[ai]
		fmt.Fprintf(out, "  administrative life (%s, %s): regDate=%s, %s .. %s, open=%v, category=%s\n",
			al.RIR, al.CC, al.RegDate, al.Span.Start, al.Span.End, al.Open,
			ds.Joint.AdminCat[ai])
	}
	for _, oi := range ops {
		ol := ds.Ops.Lifetimes[oi]
		fmt.Fprintf(out, "  operational life: %s .. %s (%d days), category=%s\n",
			ol.Span.Start, ol.Span.End, ol.Span.Days(), ds.Joint.OpCat[oi])
	}
	if act := ds.Activity.ASNs[a]; act != nil && len(act.Upstreams) > 0 {
		fmt.Fprintf(out, "  observed upstreams:")
		for up := range act.Upstreams {
			fmt.Fprintf(out, " AS%s", up)
		}
		fmt.Fprintln(out)
	}
}

func writeDatasets(ds *pipeline.Dataset, dir string, stderr io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	admin, err := os.Create(filepath.Join(dir, "administrative.jsonl"))
	if err != nil {
		return err
	}
	defer admin.Close()
	if err := ds.WriteAdminJSON(admin); err != nil {
		return err
	}
	op, err := os.Create(filepath.Join(dir, "operational.jsonl"))
	if err != nil {
		return err
	}
	defer op.Close()
	if err := ds.WriteOpJSON(op); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "datasets written to %s\n", dir)
	return nil
}

// doExportMRT writes the day's MRT archives in the day-directory layout
// that stream.DirSource and the tail verb read. A dataset keeps no world,
// so the exports regenerate the run's (worldsim.Generate is deterministic).
func doExportMRT(ctx context.Context, cfg worldsim.Config, dateStr, dir string, stderr io.Writer) error {
	day, err := dates.Parse(dateStr)
	if err != nil {
		return err
	}
	d, err := pipeline.NewCollectorSource(collector.New(worldsim.Generate(cfg)), day, day).Next(ctx, day.AddDays(-1))
	if err == io.EOF {
		return fmt.Errorf("day %s outside the window", day)
	}
	if err != nil {
		return err
	}
	w, err := stream.NewDirWriter(dir)
	if err != nil {
		return err
	}
	if err := w.WriteDay(d); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "MRT archives for %s written to %s\n", day, dir)
	return nil
}

// doExportFiles writes the day's delegation files as the RIR FTP sites
// name them; a day the simulator corrupted is written with its mangled
// bytes, a missing one is skipped.
func doExportFiles(cfg worldsim.Config, dateStr, dir string, stderr io.Writer) error {
	day, err := dates.Parse(dateStr)
	if err != nil {
		return err
	}
	if err := registry.Build(worldsim.Generate(cfg)).ExportDir(dir, day, day); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "delegation files for %s written to %s\n", day, dir)
	return nil
}
