package tpdf

import (
	"repro/internal/apps"
	"repro/internal/buffer"
)

// Case-study applications (paper §IV-V), re-exported so scenario programs
// never touch the internals. Prefer Builtin / BuiltinScenario when the
// default construction is enough; these typed constructors expose the
// scenario knobs.
type (
	// OFDMParams configures the Fig. 7 demodulator: vectorization degree
	// Beta, demapping bits M, FFT size N, cyclic prefix L.
	OFDMParams = apps.OFDMParams
	// EdgeDetectionApp is the §IV-A deadline scenario: four detectors race
	// a Clock, a Transaction commits the best result available in time.
	EdgeDetectionApp = apps.EdgeDetectionApp
	// MotionEstimationApp is the §V AVC scenario: two motion-vector
	// searches of different quality race under a frame deadline.
	MotionEstimationApp = apps.MotionEstimationApp
	// BufferPoint is one comparison point of TPDF versus CSDF buffer
	// totals, with the paper's closed-form values.
	BufferPoint = buffer.Point
)

// PaperDetectorTimes are the per-detector execution times (ms) the paper
// measured on its i3 host (the Fig. 6 table).
var PaperDetectorTimes = apps.PaperDetectorTimes

// Fig2 builds the paper's running example (Fig. 2).
func Fig2() *Graph { return apps.Fig2() }

// Fig4a and Fig4b build the liveness examples of Fig. 4.
func Fig4a() *Graph { return apps.Fig4a() }

// Fig4b builds the cyclic variant whose late schedule is (B C C B).
func Fig4b() *Graph { return apps.Fig4b() }

// DefaultOFDM returns the configuration used for the paper's buffer plots.
func DefaultOFDM() OFDMParams { return apps.DefaultOFDM() }

// OFDMGraph builds the runtime-reconfigurable OFDM demodulator of Fig. 7.
func OFDMGraph(p OFDMParams) *Graph { return apps.OFDMTPDF(p) }

// OFDMDecide returns the control decision selecting the demapping branch:
// QPSK for m=2, QAM for m=4 (§IV-B's dynamic topology change).
func OFDMDecide(g *Graph, m int64) (map[string]DecideFunc, error) {
	return apps.OFDMDecide(g, m)
}

// OFDMPayloadGraph builds the single-rate pipeline shape used for
// payload-level OFDM and FM-radio demos.
func OFDMPayloadGraph() *Graph { return apps.OFDMPayloadGraph() }

// PaperTPDFBuffer is the paper's Fig. 8 closed form 3 + β(12N+L).
func PaperTPDFBuffer(p OFDMParams) int64 { return apps.PaperTPDFBuffer(p) }

// OFDMBufferPoint simulates both demodulators at p and compares their
// buffer totals against the paper's formulas.
func OFDMBufferPoint(p OFDMParams) (BufferPoint, error) { return buffer.OFDMPoint(p) }

// EdgeDetection builds the §IV-A scenario with the given deadline and
// per-detector execution times (PaperDetectorTimes when nil).
func EdgeDetection(deadlineMS int64, execMS map[string]int64) *EdgeDetectionApp {
	return apps.EdgeDetection(deadlineMS, execMS)
}

// FMRadioGraph builds the StreamIt-style radio with dynamic band selection.
func FMRadioGraph() *Graph { return apps.FMRadioTPDF() }

// FMRadioBaseline builds the CSDF radio that must compute every band.
func FMRadioBaseline() *Graph { return apps.FMRadioCSDF() }

// FMRadioSelectBand returns the control decision activating one band.
func FMRadioSelectBand(g *Graph, band int) (map[string]DecideFunc, error) {
	return apps.FMRadioSelectBand(g, band)
}

// VC1Decoder builds the §V VC-1 decoder whose prediction path is re-decided
// per frame.
func VC1Decoder() *Graph { return apps.VC1Decoder() }

// VC1FrameDecide returns the control decision routing macroblocks through
// intra prediction ("I") or motion compensation ("P").
func VC1FrameDecide(g *Graph, frameType string) (map[string]DecideFunc, error) {
	return apps.VC1FrameDecide(g, frameType)
}

// MotionEstimation builds the §V AVC motion-estimation scenario.
func MotionEstimation(deadlineMS, fullMS, tssMS int64) *MotionEstimationApp {
	return apps.MotionEstimation(deadlineMS, fullMS, tssMS)
}
