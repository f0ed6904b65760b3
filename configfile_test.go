package hetwire_test

import (
	"bytes"
	"reflect"
	"testing"

	"hetwire"
	"hetwire/internal/config"
	"hetwire/internal/wires"
	"hetwire/internal/workload"
	"hetwire/internal/xrand"
)

// randomConfig draws one configuration from the space a config file can
// express: a named model, cluster count, latency scale, steering policy,
// link organisation, LS-bit width, a random subset of the model's supported
// techniques switched off (plus supported extensions switched on), and each
// of the seven core overrides at a random in-bounds value half the time.
// Custom links are outside this space: no config document expresses them.
func randomConfig(src *xrand.Source) hetwire.Config {
	models := []hetwire.ModelID{
		hetwire.ModelI, hetwire.ModelII, hetwire.ModelIII, hetwire.ModelIV,
		hetwire.ModelV, hetwire.ModelVI, hetwire.ModelVII, hetwire.ModelVIII,
		hetwire.ModelIX, hetwire.ModelX,
	}
	cfg := hetwire.DefaultConfig().WithModel(models[src.Intn(len(models))])
	if src.Bool(0.5) {
		cfg.Topology = hetwire.HierRing16
	}
	cfg.LatencyScale = 1 + src.Intn(3)
	switch src.Intn(3) {
	case 0:
		cfg.Steering = hetwire.SteerDynamic
	case 1:
		cfg.Steering = hetwire.SteerStatic
	case 2:
		cfg.Steering = hetwire.SteerRoundRobin
	}
	hasB := cfg.Model.Link.Has(wires.B)
	hasPW := cfg.Model.Link.Has(wires.PW)
	hasL := cfg.Model.Link.Has(wires.L)
	cfg.LinkHeterogeneous = hasB && hasPW && src.Bool(0.3)

	// Randomly disable supported techniques; never enable unsupported ones
	// (Validate would reject the config before it ever hit a file).
	t := &cfg.Tech
	maybeOff := func(b *bool) {
		if *b && src.Bool(0.4) {
			*b = false
		}
	}
	maybeOff(&t.LWireCachePipeline)
	maybeOff(&t.NarrowOperands)
	maybeOff(&t.MispredictOnL)
	maybeOff(&t.PWReadyOperands)
	maybeOff(&t.PWStoreData)
	maybeOff(&t.PWLoadBalance)
	if t.NarrowOperands && src.Bool(0.3) {
		t.NarrowOracle = true
	}
	if hasL {
		t.FrequentValueEnc = src.Bool(0.3)
		t.CriticalWordOnL = src.Bool(0.3)
		t.TransmissionLineL = src.Bool(0.3)
	}
	if t.LWireCachePipeline {
		t.LSBits = 4 + src.Intn(13) // [4,16]
	}

	// Latencies stay small enough that the worst access fits the bound
	// Validate puts on it at any drawn latency scale and topology.
	k := &cfg.Core
	for _, o := range []struct {
		field    *int
		min, max int
	}{
		{&k.ROBSize, 1, 2048},
		{&k.IssueQPerClust, 1, 255},
		{&k.RegsPerClust, 1, 255},
		{&k.FetchWidth, 1, 255},
		{&k.L1DLatency, 0, 50},
		{&k.L2Latency, 0, 200},
		{&k.MemLatency, 0, 1000},
	} {
		if src.Bool(0.5) {
			*o.field = o.min + src.Intn(o.max-o.min+1)
		}
	}
	return cfg
}

// TestConfigFileRoundTripProperty: for any expressible configuration,
// load(save(cfg)) == cfg, a second save is byte-identical (the document
// form is a fixpoint), and ConfigHash agrees across the round trip.
func TestConfigFileRoundTripProperty(t *testing.T) {
	dir := t.TempDir()
	src := xrand.New(0xC0FF_EE)
	for trial := 0; trial < 200; trial++ {
		cfg := randomConfig(src)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid config: %v", trial, err)
		}
		path := dir + "/cfg.json"
		if err := hetwire.SaveConfigFile(path, cfg); err != nil {
			t.Fatalf("trial %d: save: %v", trial, err)
		}
		loaded, err := hetwire.LoadConfigFile(path)
		if err != nil {
			t.Fatalf("trial %d: load: %v", trial, err)
		}
		if !reflect.DeepEqual(cfg, loaded) {
			t.Fatalf("trial %d: load(save(cfg)) != cfg\n save: %+v\n load: %+v", trial, cfg, loaded)
		}
		raw1, err := hetwire.ConfigJSON(cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		raw2, err := hetwire.ConfigJSON(loaded)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(raw1, raw2) {
			t.Fatalf("trial %d: config document not a fixpoint:\n%s\nvs\n%s", trial, raw1, raw2)
		}
		if h1, h2 := hetwire.ConfigHash(cfg), hetwire.ConfigHash(loaded); h1 != h2 {
			t.Fatalf("trial %d: hash mismatch %q vs %q", trial, h1, h2)
		}
	}
}

// TestConfigHashDiscriminates: equivalent configs built through different
// paths hash equal; changing a knob — a document field, a core override, or
// a link edited under a named model — changes the hash.
func TestConfigHashDiscriminates(t *testing.T) {
	a := hetwire.DefaultConfig().WithModel(hetwire.ModelVII)
	b, err := hetwire.ConfigFromJSON([]byte(`{"model":"VII","clusters":4}`))
	if err != nil {
		t.Fatal(err)
	}
	ha := hetwire.ConfigHash(a)
	if hb := hetwire.ConfigHash(b); ha != hb {
		t.Errorf("equivalent configs hash differently: %s vs %s", ha, hb)
	}
	c := a
	c.LatencyScale = 2
	if hetwire.ConfigHash(c) == ha {
		t.Error("latency change did not change the hash")
	}
	d := a
	d.Tech.NarrowOperands = false
	if hetwire.ConfigHash(d) == ha {
		t.Error("technique change did not change the hash")
	}
	e := a
	e.Core.L2Latency = 200
	if hetwire.ConfigHash(e) == ha {
		t.Error("core override did not change the hash")
	}
	f := a
	f.Model.Link.LWires = 36
	if hetwire.ConfigHash(f) == ha {
		t.Error("link edit under a named model did not change the hash")
	}
}

// TestConfigHashCoversEveryField: changing any leaf field of config.Config
// changes ConfigHash, so no knob added later can share another machine's
// identity.
func TestConfigHashCoversEveryField(t *testing.T) {
	base := hetwire.DefaultConfig()
	h0 := hetwire.ConfigHash(base)
	var visit func(v reflect.Value, path string)
	n := 0
	visit = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				visit(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
			return
		case reflect.Bool:
			v.SetBool(!v.Bool())
			defer v.SetBool(!v.Bool())
		case reflect.Int:
			v.SetInt(v.Int() + 1)
			defer v.SetInt(v.Int() - 1)
		case reflect.Uint8:
			v.SetUint(v.Uint() + 1)
			defer v.SetUint(v.Uint() - 1)
		default:
			t.Fatalf("%s: unhandled kind %v; extend this test", path, v.Kind())
		}
		n++
		if hetwire.ConfigHash(base) == h0 {
			t.Errorf("changing Config%s does not change ConfigHash", path)
		}
	}
	visit(reflect.ValueOf(&base).Elem(), "")
	if hetwire.ConfigHash(base) != h0 {
		t.Fatal("the walk did not restore the config")
	}
	if n < 58 {
		t.Errorf("visited %d leaf fields; the walk missed part of Config", n)
	}
}

// TestCacheKeyDistinguishesOverrides: a base model and two of its core
// overrides are three machines and get three cache keys.
func TestCacheKeyDistinguishesOverrides(t *testing.T) {
	seen := map[string]string{}
	for _, doc := range []string{
		`{"model":"I"}`,
		`{"model":"I","core_overrides":{"l2_latency":200}}`,
		`{"model":"I","core_overrides":{"rob":64}}`,
	} {
		req := hetwire.RunRequest{Benchmark: "mcf", N: 20_000, Config: []byte(doc)}
		key, err := req.CacheKey()
		if err != nil {
			t.Fatal(err)
		}
		if other, dup := seen[key]; dup {
			t.Errorf("%s and %s share cache key %s", doc, other, key)
		}
		seen[key] = doc
	}
}

// TestPooledRunAfterBaseMatchesFresh: the machine pool never revives a
// processor built for another configuration. Running the base machine
// first, then a variant of it, gives the variant the result a freshly built
// simulator gives.
func TestPooledRunAfterBaseMatchesFresh(t *testing.T) {
	plain, err := hetwire.ConfigFromJSON([]byte(`{"model":"I"}`))
	if err != nil {
		t.Fatal(err)
	}
	l2, err := hetwire.ConfigFromJSON([]byte(`{"model":"I","core_overrides":{"l2_latency":200}}`))
	if err != nil {
		t.Fatal(err)
	}
	// Figure 3's added layer: 18 L-wires on Model I, no techniques enabled.
	lwires := hetwire.DefaultConfig()
	lwires.Model.Link.LWires = 18
	for _, tc := range []struct {
		name, bench string
		base, cfg   hetwire.Config
	}{
		{"l2_latency", "mcf", plain, l2},
		{"edited-link", "gcc", hetwire.DefaultConfig(), lwires},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 20_000
			if _, err := hetwire.RunBenchmark(tc.base, tc.bench, n); err != nil {
				t.Fatal(err)
			}
			pooled, err := hetwire.RunBenchmark(tc.cfg, tc.bench, n)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := hetwire.NewSimulator(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			prof, _ := workload.ByName(tc.bench)
			fresh := sim.Run(workload.NewGenerator(prof), n)
			if got, want := hetwire.ResultHash(pooled), hetwire.ResultHash(fresh); got != want {
				t.Errorf("run after base: ResultHash %s, fresh simulator %s (IPC %.4f vs %.4f)",
					got, want, pooled.IPC(), fresh.IPC())
			}
		})
	}
}

// TestConfigJSONRefusesInexpressible: ConfigJSON returns an error, not a
// document naming another machine, for fields a config document cannot
// set.
func TestConfigJSONRefusesInexpressible(t *testing.T) {
	link := hetwire.DefaultConfig().WithModel(hetwire.ModelVII)
	link.Model.Link.LWires = 36
	balance := hetwire.DefaultConfig().WithModel(hetwire.ModelV)
	balance.Tech.BalanceWindow = 7
	custom := hetwire.DefaultConfig().WithLink(config.LinkSpec{BWires: 144, LWires: 36})
	for name, cfg := range map[string]hetwire.Config{
		"edited link": link, "BalanceWindow": balance, "custom link": custom,
	} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if raw, err := hetwire.ConfigJSON(cfg); err == nil {
			t.Errorf("%s: ConfigJSON encoded it as %s", name, raw)
		}
		if err := hetwire.SaveConfigFile(t.TempDir()+"/cfg.json", cfg); err == nil {
			t.Errorf("%s: SaveConfigFile wrote it", name)
		}
	}
}

// TestDefaultConfigIsModelIDocument: the Go baseline and the document that
// names Model I are one machine, so a request without a config and one with
// {"model":"I"} share every key.
func TestDefaultConfigIsModelIDocument(t *testing.T) {
	doc, err := hetwire.ConfigFromJSON([]byte(`{"model":"I"}`))
	if err != nil {
		t.Fatal(err)
	}
	if doc != hetwire.DefaultConfig() {
		t.Errorf("DefaultConfig() = %+v\n{\"model\":\"I\"} = %+v", hetwire.DefaultConfig(), doc)
	}
}
