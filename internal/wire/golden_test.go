package wire

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/service"
)

// goldenDigests pins the trained weights, the artifact bytes, and the
// IEEE-754 bits of every prediction of one fixed-seed tiny classifier
// and one tiny regressor. Any refactor of the training, artifact or
// serving layers must leave all three digests unchanged: the serving
// paths (direct core calls, Service.Predict, Service.PredictBatch, the
// HTTP handler and the wire server) must agree with each other and
// with these values bit for bit.
//
// The values hold for GOARCH=amd64 only. The Go spec lets a compiler
// fuse x*y+z into one fused multiply-add, which rounds once instead of
// twice; the gc compiler does so on arm64, ppc64le, s390x and riscv64
// but not on amd64, so other architectures legitimately produce
// different low-order bits.
var goldenDigests = map[string]struct{ weights, artifact, predictions string }{
	"errors": {
		weights:     "e1d11d16a09166fa0c623ee81c5bfd5a71338897a685ca9141ae65438888451e",
		artifact:    "07ff9dc966b6b0efe192380881d6c239162a72c01847b8ac1d08ad8e2cf42e75",
		predictions: "aeac9a8efeb4024c624e3b33141e37638be1c0511d8f7279f5687079e2406a25",
	},
	"cpu": {
		weights:     "6e95e231391add3e173800495e2cfd5a0465fa02e6edffa5cba3be0efe9ff4b4",
		artifact:    "d998784602bcd82d4f3750ef7c657c2d3d76e745d9da8677f4999cc791690717",
		predictions: "c0eb3b236a4a6078fb5cc2c878389efcf9c58390f21b1a949c5d51d4761e7ce6",
	},
}

// goldenModels trains the pinned models: a ccnn error classifier and a
// clstm CPU-time regressor on the shared fixed-seed workload.
func goldenModels(t *testing.T) map[string]*core.Model {
	t.Helper()
	out := map[string]*core.Model{}
	for name, spec := range map[string]struct {
		kind string
		task core.Task
	}{
		"errors": {"ccnn", core.ErrorClassification},
		"cpu":    {"clstm", core.CPUTimePrediction},
	} {
		m, err := core.Train(spec.kind, spec.task, testSplit().Train, core.TinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		out[name] = m
	}
	return out
}

// digest hashes a sequence of float64 bit patterns.
type digest struct{ buf []byte }

func (d *digest) f64(v float64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(v))
}

func (d *digest) prediction(pr service.Prediction) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(pr.Class))
	for _, p := range pr.Probs {
		d.f64(p)
	}
	d.f64(pr.Log)
	d.f64(pr.Raw)
}

func (d *digest) sum() string {
	s := sha256.Sum256(d.buf)
	return hex.EncodeToString(s[:])
}

func sum(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestGoldenDigests is the behaviour lock for the serving surface.
func TestGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned for amd64; GOARCH=%s may fuse multiply-adds", runtime.GOARCH)
	}
	models := goldenModels(t)
	stmts := testStatements(24)
	svc := service.New(service.Options{Serve: serve.Options{Replicas: 2, MaxBatch: 8}})
	defer svc.Close()
	for name, m := range models {
		if _, err := svc.Swap(name, m); err != nil {
			t.Fatal(err)
		}
	}
	hsrv := httptest.NewServer(service.NewHandler(svc))
	defer hsrv.Close()
	_, addr := startServer(t, svc, "tcp", ServerOptions{})
	wc := Dial("tcp", addr, ClientOptions{})
	defer wc.Close()
	ctx := context.Background()

	for name, m := range models {
		want := goldenDigests[name]
		st, err := m.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		var w digest
		for _, p := range st.Params {
			w.buf = append(w.buf, p.Name...)
			for _, v := range p.W {
				w.f64(v)
			}
		}
		check(t, name+" weights", w.sum(), want.weights)
		blob, err := artifact.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		check(t, name+" artifact", sum(blob), want.artifact)

		// Direct core calls: the reference every transport must match.
		var direct digest
		for _, s := range stmts {
			pr := service.Prediction{}
			if m.Task.IsClassification() {
				pr.Probs = m.Probs(s)
				pr.Class = m.PredictClass(s)
			} else {
				pr.Log = m.PredictLog(s)
				pr.Raw = m.PredictRaw(s)
			}
			direct.prediction(pr)
		}
		check(t, name+" core predictions", direct.sum(), want.predictions)

		paths := map[string]func() []service.Prediction{
			"Service.Predict": func() []service.Prediction {
				out := make([]service.Prediction, len(stmts))
				for i, s := range stmts {
					if out[i], err = svc.Predict(ctx, name, s); err != nil {
						t.Fatal(err)
					}
				}
				return out
			},
			"Service.PredictBatch": func() []service.Prediction {
				out, err := svc.PredictBatch(ctx, name, stmts)
				if err != nil {
					t.Fatal(err)
				}
				return out
			},
			"HTTP": func() []service.Prediction {
				body, _ := json.Marshal(map[string]any{"model": name, "statements": stmts})
				resp, err := http.Post(hsrv.URL+"/v1/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var r struct{ Results []service.Prediction }
				if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
					t.Fatal(err)
				}
				return r.Results
			},
			"wire": func() []service.Prediction {
				out := make([]service.Prediction, len(stmts))
				for i, s := range stmts {
					if out[i], err = wc.Predict(ctx, name, s); err != nil {
						t.Fatal(err)
					}
				}
				return out
			},
			"wire batch": func() []service.Prediction {
				out, err := wc.PredictBatch(ctx, name, stmts)
				if err != nil {
					t.Fatal(err)
				}
				return out
			},
		}
		for path, run := range paths {
			var d digest
			for _, pr := range run() {
				d.prediction(pr)
			}
			check(t, name+" "+path+" predictions", d.sum(), want.predictions)
		}
	}
}

func check(t *testing.T, what, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s digest = %s, want %s", what, got, want)
	}
}
