package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"ndpipe/internal/core"
	"ndpipe/internal/dataset"
	"ndpipe/internal/inferserver"
	"ndpipe/internal/labeldb"
	"ndpipe/internal/pipestore"
	"ndpipe/internal/serve"
	"ndpipe/internal/telemetry"
	"ndpipe/internal/tuner"
)

// Fleet shape and round parameters shared by every workload.
const (
	numStores  = 4
	preloadN   = 20000
	nrun       = 3
	batchSize  = 128
	testSetN   = 2000
	zipfS      = 1.2
	freshIDLo  = 1 << 40 // upload photo IDs start here, far above the preload's
	setupLimit = 30 * time.Second
)

// inputs is everything a run derives from its seed. The program under test
// only ever sees these generated photos.
type inputs struct {
	seed    int64
	cfg     core.ModelConfig
	preload []dataset.Image // the photos every fleet is preloaded with
	test    *dataset.Batch  // held-out photos from today's distribution
}

func makeInputs(seed int64) *inputs {
	wcfg := dataset.DefaultConfig(seed)
	wcfg.InitialImages = preloadN
	w := dataset.NewWorld(wcfg)
	pre := w.Images()
	// Upload bodies are prepared up front, as a load generator would; the
	// stores keep the slice without copying, so replicas share it.
	dataset.AttachRaw(pre, dataset.DefaultJPEGSpec())
	return &inputs{seed: seed, cfg: core.DefaultModelConfig(), preload: pre, test: w.FreshTestSet(testSetN)}
}

// uploadStream draws n uploads whose content follows Zipf(zipfS) popularity
// over the preloaded catalog; each arrival is a new photo object (fresh ID).
// Streams of different steps use different salts and ID ranges.
func (in *inputs) uploadStream(n int, salt int64, idBase uint64) []dataset.Image {
	rng := rand.New(rand.NewSource(in.seed*7919 + salt))
	z := rand.NewZipf(rng, zipfS, 1, uint64(len(in.preload)-1))
	out := make([]dataset.Image, n)
	for i := range out {
		img := in.preload[z.Uint64()]
		img.ID = idBase + uint64(i)
		out[i] = img
	}
	return out
}

// fleet is one in-process deployment assembled from the public
// constructors the way service.Start does it: a tuner accepting stores over
// loopback TCP, the PipeStores, the online inference server sharing the
// tuner's label database and, for the upload workload, the serving gateway.
type fleet struct {
	tn      *tuner.Node
	stores  []*pipestore.Node
	inf     *inferserver.Server
	gw      *serve.Gateway
	backend *timedBackend // the gateway's backend when traced, else nil
	ln      net.Listener
	serving sync.WaitGroup
	r       int
}

// fleetOptions selects the replication factor and the gateway.
type fleetOptions struct {
	replication int  // 1 = round-robin placement (service.Start), 2 = ring R=2
	gateway     bool // front the inference server with serve.Gateway
	timed       bool // wrap the gateway's backend in the InferBatch timer
}

// gatewayOptions is the serving configuration of the upload workload.
func gatewayOptions() serve.Options {
	o := serve.DefaultOptions()
	o.MaxBatch = 64
	o.MaxWait = 500 * time.Microsecond
	// A registry per gateway keeps its Stats to this fleet alone.
	o.Registry = telemetry.NewRegistry()
	return o
}

// startFleet builds a fleet and preloads it. Stores register one at a time
// and the preload goes through sequential inferserver.Upload calls, so
// placement and the label database are the same on every run of a seed.
func startFleet(in *inputs, o fleetOptions) (*fleet, error) {
	tn, err := tuner.New(in.cfg)
	if err != nil {
		return nil, err
	}
	f := &fleet{tn: tn, r: o.replication}
	if o.replication > 1 {
		if err := tn.EnableReplication(o.replication); err != nil {
			return nil, err
		}
	}
	f.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	accepted := make(chan error, 1)
	go func() { accepted <- tn.AcceptStores(f.ln, numStores) }()
	deadline := time.Now().Add(setupLimit)
	for i := 0; i < numStores; i++ {
		ps, err := pipestore.New(fmt.Sprintf("ps-%d", i), in.cfg)
		if err != nil {
			f.close()
			return nil, err
		}
		conn, err := net.Dial("tcp", f.ln.Addr().String())
		if err != nil {
			f.close()
			return nil, err
		}
		f.serving.Add(1)
		go func() {
			defer f.serving.Done()
			// Serve returns when close disconnects the store; the error is
			// that disconnect, and a failure mid-run surfaces in the round.
			_ = ps.Serve(conn)
		}()
		f.stores = append(f.stores, ps)
		for tn.NumStores() < i+1 {
			if time.Now().After(deadline) {
				f.close()
				return nil, fmt.Errorf("store %s did not register within %v", ps.ID, setupLimit)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	if err := <-accepted; err != nil {
		f.close()
		return nil, err
	}
	f.inf, err = inferserver.New(in.cfg, f.stores, tn.DB())
	if err != nil {
		f.close()
		return nil, err
	}
	if o.replication > 1 {
		if err := f.inf.EnableReplication(o.replication); err != nil {
			f.close()
			return nil, err
		}
	}
	for _, img := range in.preload {
		if _, err := f.inf.Upload(img); err != nil {
			f.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	if o.gateway {
		var backend serve.Backend = f.inf
		if o.timed {
			f.backend = newTimedBackend(f.inf)
			backend = f.backend
		}
		f.gw, err = serve.New(backend, gatewayOptions())
		if err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

// close drains the gateway, disconnects the stores and waits for their
// serve loops to end, then collects the fleet's garbage so the next set-up
// starts from the same heap.
func (f *fleet) close() {
	if f.gw != nil {
		f.gw.Close()
	}
	f.tn.Close()
	if f.ln != nil {
		_ = f.ln.Close()
	}
	f.serving.Wait()
	runtime.GC()
}

// storedPhotos is the number of photo objects the stores hold, replicas
// counted separately.
func (f *fleet) storedPhotos() int {
	n := 0
	for _, ps := range f.stores {
		n += ps.NumImages()
	}
	return n
}

// shardSkew is the largest store's photo count over the mean.
func (f *fleet) shardSkew() float64 {
	mx, sum := 0, 0
	for _, ps := range f.stores {
		n := ps.NumImages()
		sum += n
		mx = max(mx, n)
	}
	if sum == 0 {
		return 0
	}
	return float64(mx) * float64(len(f.stores)) / float64(sum)
}

// usage sums the stores' photostore accounting: compression ratio of the
// preprocessed binaries and total bytes held.
func (f *fleet) usage() (ratio, storedMB float64) {
	var raw, pre, preRaw int64
	for _, ps := range f.stores {
		u := ps.Storage().Usage()
		raw += u.RawBytes
		pre += u.PreprocBytes
		preRaw += u.PreprocRawBytes
	}
	if pre > 0 {
		ratio = float64(preRaw) / float64(pre)
	}
	return ratio, float64(raw+pre) / 1e6
}

// twinUploads replays imgs through sequential inferserver.Upload on a fresh
// rig with the same store IDs and placement, at model version 0, and
// returns its results. Its stores record into a private registry so they
// do not disturb the fleet's counters.
func twinUploads(in *inputs, r int, imgs []dataset.Image) ([]inferserver.UploadResult, error) {
	reg := telemetry.NewRegistry()
	stores := make([]*pipestore.Node, numStores)
	for i := range stores {
		ps, err := pipestore.New(fmt.Sprintf("ps-%d", i), in.cfg)
		if err != nil {
			return nil, err
		}
		ps.SetRegistry(reg)
		stores[i] = ps
	}
	inf, err := inferserver.New(in.cfg, stores, labeldb.New())
	if err != nil {
		return nil, err
	}
	if r > 1 {
		if err := inf.EnableReplication(r); err != nil {
			return nil, err
		}
	}
	out := make([]inferserver.UploadResult, len(imgs))
	for i, img := range imgs {
		if out[i], err = inf.Upload(img); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// setup starts a fleet and reports its set-up wall time: fleet start plus
// preload, until the first timed operation.
func setup(in *inputs, o fleetOptions) (*fleet, float64, error) {
	t0 := time.Now()
	f, err := startFleet(in, o)
	return f, time.Since(t0).Seconds(), err
}
