// FM radio example (the StreamIt benchmark §V cites): an FM-modulated test
// tone is demodulated and equalized at the payload level — once on the
// sequential runner and once on the concurrent streaming engine with a
// real-time paced source — and the TPDF band-selection variant is compared
// against the CSDF pipeline that must compute every band.
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"repro/tpdf"
	"repro/tpdf/dsp"
)

const (
	samples = 4096
	block   = 64
	// acquire models the RF front end delivering one block of samples in
	// real time; the concurrent engine hides the DSP behind it.
	acquire = 200 * time.Microsecond
)

// chainBehaviors wires the payload chain: paced source -> two pass-through
// stages -> band-pass equalizer -> capture sink. Each call returns fresh
// closures (and a fresh FIR: it is stateful) so sequential and concurrent
// runs are identical.
func chainBehaviors(demod []float64, captured *[]float64) (map[string]tpdf.Behavior, error) {
	taps, err := dsp.BandPassTaps(0.01, 0.05, 63)
	if err != nil {
		return nil, err
	}
	band := dsp.NewFIR(taps)
	idx := 0
	passthrough := func(f *tpdf.Firing) error {
		f.Produce("o0", f.In["i0"][0])
		return nil
	}
	return map[string]tpdf.Behavior{
		"SRC": func(f *tpdf.Firing) error {
			time.Sleep(acquire) // the antenna delivers blocks in real time
			f.Produce("o0", demod[idx*block:(idx+1)*block])
			idx++
			return nil
		},
		"RCP": passthrough,
		"FFT": passthrough,
		"QAM": func(f *tpdf.Firing) error { // equalizer band
			f.Produce("o0", band.Filter(f.In["i0"][0].([]float64)))
			return nil
		},
		"SNK": func(f *tpdf.Firing) error {
			*captured = append(*captured, f.In["i0"][0].([]float64)...)
			return nil
		},
	}, nil
}

// inBandPower sums the squared tail of the captured signal (past the FIR
// warm-up).
func inBandPower(captured []float64) float64 {
	var power float64
	for _, v := range captured[len(captured)/2:] {
		power += v * v
	}
	return power
}

func main() {
	// 1. Payload-level chain: tone -> FM modulate -> demodulate -> bandpass.
	msg := make([]float64, samples)
	for i := range msg {
		msg[i] = math.Sin(2 * math.Pi * 0.02 * float64(i)) // normalized 0.02 tone
	}
	rf := dsp.FMModulate(msg, 0.1)
	demod := dsp.FMDemod(rf)
	g := tpdf.OFDMPayloadGraph() // reuse the 5-stage single-rate pipeline shape

	// Sequential runner: every stage fires one at a time.
	var seqOut []float64
	behaviors, err := chainBehaviors(demod, &seqOut)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	if _, err := tpdf.Execute(g, behaviors, tpdf.WithIterations(samples/block)); err != nil {
		log.Fatal(err)
	}
	seqTime := time.Since(start)

	// Concurrent engine: WithWorkers asks for one goroutine per stage
	// (Stream's default runs the stages one at a time in schedule order),
	// bounded channels, the DSP overlaps the paced acquisition.
	var concOut []float64
	behaviors, err = chainBehaviors(demod, &concOut)
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	if _, err := tpdf.Stream(g, behaviors, tpdf.WithIterations(samples/block),
		tpdf.WithWorkers(len(g.Nodes))); err != nil {
		log.Fatal(err)
	}
	concTime := time.Since(start)

	power := inBandPower(seqOut)
	fmt.Printf("demodulated %d samples; in-band output power %.4f (tone recovered: %v)\n",
		len(seqOut), power, power > 1)
	fmt.Printf("concurrent engine: same output: %v\n", math.Abs(inBandPower(concOut)-power) < 1e-9)
	// Throughput: every iteration moves one block token across each of the
	// four pipeline edges, so tokens/sec is what the transport sustains;
	// samples/sec is the audio-rate view of the same number.
	iterations := int64(samples / block)
	tokens := iterations * 4
	tokPerSec := func(d time.Duration) float64 { return float64(tokens) / d.Seconds() }
	fmt.Printf("sequential %.1f ms (%.0f tokens/s, %.0f samples/s), concurrent %.1f ms (%.0f tokens/s, %.0f samples/s): speedup %.2fx\n",
		float64(seqTime.Microseconds())/1000, tokPerSec(seqTime), float64(samples)/seqTime.Seconds(),
		float64(concTime.Microseconds())/1000, tokPerSec(concTime), float64(samples)/concTime.Seconds(),
		float64(seqTime)/float64(concTime))

	// 2. Model-level comparison: TPDF band selection vs CSDF all-bands.
	cres, err := tpdf.Simulate(tpdf.FMRadioBaseline())
	if err != nil {
		log.Fatal(err)
	}
	tg := tpdf.FMRadioGraph()
	decide, err := tpdf.FMRadioSelectBand(tg, 2)
	if err != nil {
		log.Fatal(err)
	}
	tres, err := tpdf.Simulate(tg, tpdf.WithDecisions(decide))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CSDF radio: buffer %d tokens, finished t=%d\n", cres.TotalBuffer(), cres.Time)
	fmt.Printf("TPDF radio (1 band): buffer %d tokens, finished t=%d\n", tres.TotalBuffer(), tres.Time)
}
