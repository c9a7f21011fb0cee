package camera

import "testing"

func BenchmarkSphericalPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Spherical(3, 10, 400)
	}
}

func BenchmarkRandomPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Random(2.8, 3.2, 10, 15, 400, uint64(i))
	}
}

func BenchmarkHeadMotionPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		HeadMotion(3, 400, uint64(i))
	}
}

// BenchmarkPredict measures the per-view-update predictor cost the server
// pays on its prefetch path: one Observe plus one Predict per step of an
// orbit trace.
func BenchmarkPredict(b *testing.B) {
	path := Orbit(3, 64)
	p := NewPredictor()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pos := path.Steps[i%len(path.Steps)]
		p.Observe(pos)
		if tgt, _ := p.Predict(); tgt.Norm() == 0 {
			b.Fatal("degenerate prediction")
		}
	}
}

func BenchmarkMeanAngularStep(b *testing.B) {
	p := Random(2.8, 3.2, 10, 15, 400, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.meanAngularStep()
	}
}
