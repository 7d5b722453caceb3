package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"time"

	"parallellives/internal/collector"
	"parallellives/internal/pipeline"
	"parallellives/internal/stream"
	"parallellives/internal/worldsim"
)

const feedUsage = `parallellives feed -tail-dir days/ -feed-interval 100ms [world flags]

Renders the window's collector days into the day directory one at a
time — the stand-in for a growing real-world archive that the tail
daemon (parallellives tail, a separate process) follows.
`

func feedVerb(fs *flag.FlagSet) verbBody {
	cfg := worldsim.DefaultConfig()
	addWorldFlags(fs, &cfg)
	var (
		dir   = tailDirFlag(fs)
		every = fs.Duration("feed-interval", 100*time.Millisecond, "delay between published days")
	)
	return func(ctx context.Context, _ []string, stdout, stderr io.Writer) error {
		if err := checkWindow(fs, cfg); err != nil {
			return err
		}
		w, err := stream.NewDirWriter(*dir)
		if err != nil {
			return err
		}
		src := pipeline.NewCollectorSource(collector.New(worldsim.Generate(cfg)), cfg.Start, cfg.End)
		fmt.Fprintf(stderr, "feed: feeding %s..%s into %s every %v\n", cfg.Start, cfg.End, *dir, *every)
		tick := time.NewTicker(*every)
		defer tick.Stop()
		n := 0
		for last := cfg.Start.AddDays(-1); ; n++ {
			day, err := src.Next(ctx, last)
			switch {
			case err == io.EOF:
				fmt.Fprintf(stderr, "feed: complete, %d days published\n", n)
				return nil
			case ctx.Err() != nil:
				fmt.Fprintf(stderr, "feed: stopped after %d days\n", n)
				return nil
			case err != nil:
				return err
			}
			if err := w.WriteDay(day); err != nil {
				return err
			}
			last = day.Day
			select {
			case <-ctx.Done():
			case <-tick.C:
			}
		}
	}
}
