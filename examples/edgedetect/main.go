// Edge detection under a deadline (paper §IV-A, Fig. 6): the four real
// detectors run on a synthetic 1024×1024 image to measure this host's
// execution times, then the TPDF graph — Transaction plus 500 ms Clock —
// selects the best result available at the deadline. A payload-level
// fan-out runs all detectors on real frames through the sequential runner
// and the concurrent streaming engine, measuring the speedup.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/tpdf"
	"repro/tpdf/imaging"
)

// payloadFanOut pushes frames frames through SRC -> {four detectors} ->
// SNK at the payload level, with run as the executor (tpdf.Execute or
// tpdf.Stream), and reports the wall-clock time. WithWorkers asks Stream
// for concurrent behaviors, so it runs one goroutine per node and the four
// detectors overlap (Stream's default, like the sequential runner, fires
// them one at a time in schedule order); Execute ignores the option.
func payloadFanOut(im *imaging.Image, frames int64,
	run func(*tpdf.Graph, map[string]tpdf.Behavior, ...tpdf.Option) (*tpdf.ExecResult, error)) (time.Duration, error) {

	detectors := imaging.Detectors()
	b := tpdf.NewGraph("edgepayload").Kernel("SRC", 1)
	for _, d := range detectors {
		b = b.Kernel(d.Name, 1)
	}
	b = b.Kernel("SNK", 1)
	for _, d := range detectors {
		b = b.Connect(fmt.Sprintf("SRC[1] -> %s[1]", d.Name)).
			Connect(fmt.Sprintf("%s[1] -> SNK[1]", d.Name))
	}
	g, err := b.Build()
	if err != nil {
		return 0, err
	}

	behaviors := map[string]tpdf.Behavior{
		"SRC": func(f *tpdf.Firing) error {
			for i := range detectors {
				f.Produce(fmt.Sprintf("o%d", i), im)
			}
			return nil
		},
	}
	for _, d := range detectors {
		run := d.Run
		behaviors[d.Name] = func(f *tpdf.Firing) error {
			f.Produce("o0", run(f.In["i0"][0].(*imaging.Image)))
			return nil
		}
	}

	start := time.Now()
	if _, err := run(g, behaviors, tpdf.WithIterations(frames), tpdf.WithWorkers(len(g.Nodes))); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// writePGMFile saves an image under the given path, creating directories.
func writePGMFile(path string, im *imaging.Image) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return imaging.WritePGM(f, im)
}

func main() {
	size := flag.Int("size", 1024, "image side length")
	deadline := flag.Int64("deadline", 500, "clock deadline in ms")
	outDir := flag.String("out", "", "write input and per-detector PGM images to this directory")
	flag.Parse()

	im := imaging.Synthetic(*size, *size, 1)
	fmt.Printf("synthetic scene %dx%d, mean intensity %.1f\n", *size, *size, im.Mean())
	if *outDir != "" {
		if err := writePGMFile(filepath.Join(*outDir, "input.pgm"), im); err != nil {
			log.Fatal(err)
		}
	}

	// Measure the real detectors (the Fig. 6 table on this host).
	measured := map[string]int64{}
	fmt.Println("method   paper-ms  this-host-ms  edge-density")
	for _, d := range imaging.Detectors() {
		start := time.Now()
		out := d.Run(im)
		ms := time.Since(start).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		measured[d.Name] = ms
		fmt.Printf("%-8s %8d  %12d  %.4f\n",
			d.Name, tpdf.PaperDetectorTimes[d.Name], ms, imaging.EdgeDensity(out, 60))
		if *outDir != "" {
			name := filepath.Join(*outDir, strings.ToLower(d.Name)+".pgm")
			if err := writePGMFile(name, out); err != nil {
				log.Fatal(err)
			}
		}
	}
	if *outDir != "" {
		fmt.Printf("wrote PGM images to %s\n", *outDir)
	}

	// Run the deadline selection twice: once with the paper's published
	// times, once with this host's measurements.
	for _, cfg := range []struct {
		label string
		times map[string]int64
	}{
		{"paper times (i3 @ 2.53GHz)", nil},
		{"measured times (this host)", measured},
	} {
		app := tpdf.EdgeDetection(*deadline, cfg.times)
		res, err := tpdf.Simulate(app.Graph,
			tpdf.WithDecisions(app.DeadlineDecide()), tpdf.WithRecord())
		if err != nil {
			log.Fatal(err)
		}
		chosen := "(none finished)"
		for _, ev := range res.Events {
			if ev.Node == "Trans" && len(ev.Selected) == 1 {
				chosen = app.DetectorFor(ev.Selected[0])
			}
		}
		fmt.Printf("deadline %d ms with %s: selected %s\n", *deadline, cfg.label, chosen)
	}

	// Payload-level fan-out: all four detectors on real frames, sequential
	// runner versus the engine with WithWorkers (one goroutine per detector).
	const frames = 4
	frame := imaging.Synthetic(256, 256, 1)
	seqTime, err := payloadFanOut(frame, frames, tpdf.Execute)
	if err != nil {
		log.Fatal(err)
	}
	concTime, err := payloadFanOut(frame, frames, tpdf.Stream)
	if err != nil {
		log.Fatal(err)
	}
	// Each frame moves 8 payload tokens (one image into each detector, one
	// result out of each), so tokens/sec reflects what the engine transport
	// plus the detector kernels sustain end to end.
	tokens := float64(frames * 8)
	fmt.Printf("payload fan-out (%d frames, 4 detectors): sequential %.1f ms (%.0f tokens/s), concurrent %.1f ms (%.0f tokens/s), speedup %.2fx\n",
		frames, float64(seqTime.Microseconds())/1000, tokens/seqTime.Seconds(),
		float64(concTime.Microseconds())/1000, tokens/concTime.Seconds(),
		float64(seqTime)/float64(concTime))
}
