// Package stream is the crash-safe streaming ingestion layer: a Tailer
// follows a growing collector archive one complete day at a time, folds
// each day into a running activity carry via the bgpscan partial-merge
// path (no recompute of prior days), and records its position and
// carry-state in a CRC-checksummed checkpoint journal written with
// write-temp-fsync-rename discipline. A crash — of the process or of a
// checkpoint write — resumes from the last committed day, and the tail
// of a full window converges on a lifestore snapshot byte-identical to
// a single batch pipeline.Run over the same options (the
// crash-equivalence property test pins this, on clean and chaos
// inputs).
//
// The day vocabulary — pipeline.Day, Archive, Source, ErrStale — lives
// in pipeline, whose Base.ScanDay is the one day step the batch scan and
// the Tailer share. A Source follows bgpipe's ris-live stage: messages
// (here: whole days) carry their collector identity, reads have a
// deadline, staleness is an error (pipeline.ErrStale) that triggers the
// Tailer's reconnect path, and reconnects are paced by the bounded
// deterministic backoff of faults.Reconnector.
//
// The directory source (DirSource) reads one day ahead of its caller into
// two recycled Day slots, so the scan of day N overlaps the file reads of
// day N+1 and a steady-state day allocates no archive memory; the price
// is the Source rule that a Day is only good until the next Next.
package stream

import "parallellives/internal/pipeline"

// The names the benchmark harness compiles against (benchmark/README.md,
// "Pinned public surface"). They stay here until the harness moves to
// the pipeline names (ROADMAP 1(f)); new code uses pipeline's.
type Day = pipeline.Day

var DayFromMRT = pipeline.DayFromMRT
