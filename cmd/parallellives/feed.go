package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"time"

	"parallellives/internal/collector"
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
		inf := collector.New(worldsim.Generate(cfg))
		fmt.Fprintf(stderr, "feed: feeding %s..%s into %s every %v\n", cfg.Start, cfg.End, *dir, *every)
		tick := time.NewTicker(*every)
		defer tick.Stop()
		n := 0
		it := inf.IterRange(cfg.Start, cfg.End)
		var ribs, upds [][]byte // written out and encoded over, day after day
		for it.Next() {
			var err error
			if ribs, upds, err = it.AppendMRT(ribs, upds); err != nil {
				return fmt.Errorf("rendering day %s: %w", it.Day(), err)
			}
			if err := w.WriteDay(stream.DayFromMRT(it.Day(), ribs, upds)); err != nil {
				return err
			}
			n++
			select {
			case <-ctx.Done():
				fmt.Fprintf(stderr, "feed: stopped after %d days\n", n)
				return nil
			case <-tick.C:
			}
		}
		fmt.Fprintf(stderr, "feed: complete, %d days published\n", n)
		return nil
	}
}
