package hetwire

import (
	"encoding/json"
	"fmt"
	"os"

	"hetwire/internal/config"
)

// configFile is the JSON shape of a saved machine configuration. Only the
// commonly-swept knobs are exposed; everything else keeps its Table 1
// default.
type configFile struct {
	Model             string          `json:"model"`
	Clusters          int             `json:"clusters"`
	LatencyScale      int             `json:"latency_scale,omitempty"`
	Steering          string          `json:"steering,omitempty"`
	LinkHeterogeneous bool            `json:"link_heterogeneous,omitempty"`
	Techniques        map[string]bool `json:"techniques,omitempty"`
	LSBits            int             `json:"ls_bits,omitempty"`
	Overrides         map[string]int  `json:"core_overrides,omitempty"`
}

var steeringNames = map[string]config.SteeringPolicy{
	"":            config.SteerDynamic,
	"dynamic":     config.SteerDynamic,
	"static-hash": config.SteerStatic,
	"round-robin": config.SteerRoundRobin,
}

var modelByName = map[string]ModelID{
	"I": ModelI, "II": ModelII, "III": ModelIII, "IV": ModelIV, "V": ModelV,
	"VI": ModelVI, "VII": ModelVII, "VIII": ModelVIII, "IX": ModelIX, "X": ModelX,
}

// LoadConfigFile reads a machine configuration from a JSON file. Unset
// fields keep the paper's defaults; the model's supported techniques are
// enabled unless the file's "techniques" map disables them explicitly.
func LoadConfigFile(path string) (Config, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	cfg, err := ConfigFromJSON(raw)
	if err != nil {
		return Config{}, fmt.Errorf("hetwire: %s: %w", path, err)
	}
	return cfg, nil
}

// ConfigFromJSON decodes a machine configuration from the JSON document
// shape used by config files and the hetwired serving API. Unset fields
// keep the paper's defaults.
func ConfigFromJSON(raw []byte) (Config, error) {
	var cf configFile
	if err := json.Unmarshal(raw, &cf); err != nil {
		return Config{}, fmt.Errorf("hetwire: parsing config: %w", err)
	}

	id, ok := modelByName[cf.Model]
	if !ok {
		return Config{}, fmt.Errorf("hetwire: unknown model %q (use I..X)", cf.Model)
	}
	cfg := DefaultConfig().WithModel(id)
	switch cf.Clusters {
	case 0, 4:
	case 16:
		cfg.Topology = config.HierRing16
	default:
		return Config{}, fmt.Errorf("hetwire: clusters must be 4 or 16, got %d", cf.Clusters)
	}
	if cf.LatencyScale != 0 {
		cfg.LatencyScale = cf.LatencyScale
	}
	pol, ok := steeringNames[cf.Steering]
	if !ok {
		return Config{}, fmt.Errorf("hetwire: unknown steering policy %q", cf.Steering)
	}
	cfg.Steering = pol
	cfg.LinkHeterogeneous = cf.LinkHeterogeneous
	if cf.LSBits != 0 {
		cfg.Tech.LSBits = cf.LSBits
	}
	for name, on := range cf.Techniques {
		field, ok := techniqueFields[name]
		if !ok {
			return Config{}, fmt.Errorf("hetwire: unknown technique %q", name)
		}
		*field(&cfg.Tech) = on
	}
	for name, v := range cf.Overrides {
		field, ok := overrideFields[name]
		if !ok {
			return Config{}, fmt.Errorf("hetwire: unknown core override %q", name)
		}
		*field(&cfg.Core) = v
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// techniqueFields maps each technique name a config document uses to its
// toggle. ConfigFromJSON sets through it and ConfigJSON reads through it.
var techniqueFields = map[string]func(*config.Techniques) *bool{
	"cache_pipeline":      func(t *config.Techniques) *bool { return &t.LWireCachePipeline },
	"narrow_operands":     func(t *config.Techniques) *bool { return &t.NarrowOperands },
	"narrow_oracle":       func(t *config.Techniques) *bool { return &t.NarrowOracle },
	"mispredict_on_l":     func(t *config.Techniques) *bool { return &t.MispredictOnL },
	"pw_ready_operands":   func(t *config.Techniques) *bool { return &t.PWReadyOperands },
	"pw_store_data":       func(t *config.Techniques) *bool { return &t.PWStoreData },
	"pw_load_balance":     func(t *config.Techniques) *bool { return &t.PWLoadBalance },
	"frequent_value":      func(t *config.Techniques) *bool { return &t.FrequentValueEnc },
	"critical_word":       func(t *config.Techniques) *bool { return &t.CriticalWordOnL },
	"transmission_line_l": func(t *config.Techniques) *bool { return &t.TransmissionLineL },
}

// overrideFields maps each "core_overrides" name to its Core field.
// ConfigFromJSON sets through it and ConfigJSON reads through it.
var overrideFields = map[string]func(*config.Core) *int{
	"rob":            func(c *config.Core) *int { return &c.ROBSize },
	"issue_queue":    func(c *config.Core) *int { return &c.IssueQPerClust },
	"registers":      func(c *config.Core) *int { return &c.RegsPerClust },
	"fetch_width":    func(c *config.Core) *int { return &c.FetchWidth },
	"l1d_latency":    func(c *config.Core) *int { return &c.L1DLatency },
	"l2_latency":     func(c *config.Core) *int { return &c.L2Latency },
	"memory_latency": func(c *config.Core) *int { return &c.MemLatency },
}

// SaveConfigFile writes a configuration to a JSON file that LoadConfigFile
// reads back as an equal Config. It refuses, with ConfigJSON's error, a
// configuration a config document cannot express.
func SaveConfigFile(path string, cfg Config) error {
	raw, err := ConfigJSON(cfg)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// ConfigJSON encodes a configuration as a config document: fixed field
// order, every technique, each core override that differs from Table 1, and
// no dependence on how the Config was built. ConfigFromJSON decodes the
// document to a Config equal to cfg; a configuration no document can
// express — an edited or custom link, another Core field changed, changed
// balance parameters — gets an error instead of a document that names a
// different machine. The document is a file format, not an identity:
// ConfigHash identifies configurations.
func ConfigJSON(cfg Config) ([]byte, error) {
	if cfg.Model.ID < ModelI || cfg.Model.ID > ModelX {
		return nil, fmt.Errorf("hetwire: config with custom link %v has no config document (only named models I..X)", cfg.Model.Link)
	}
	cf := configFile{
		Model:             cfg.Model.ID.String()[len("Model-"):],
		Clusters:          cfg.Topology.Clusters(),
		LatencyScale:      cfg.LatencyScale,
		Steering:          cfg.Steering.String(),
		LinkHeterogeneous: cfg.LinkHeterogeneous,
		LSBits:            cfg.Tech.LSBits,
		Techniques:        make(map[string]bool, len(techniqueFields)),
		Overrides:         make(map[string]int),
	}
	for name, field := range techniqueFields {
		cf.Techniques[name] = *field(&cfg.Tech)
	}
	table1 := config.DefaultCore()
	for name, field := range overrideFields {
		if v := *field(&cfg.Core); v != *field(&table1) {
			cf.Overrides[name] = v
		}
	}
	raw, err := json.MarshalIndent(cf, "", "  ")
	if err != nil {
		return nil, err
	}
	back, err := ConfigFromJSON(raw)
	if err != nil {
		return nil, err
	}
	if back != cfg {
		return nil, fmt.Errorf("hetwire: config has fields a config document cannot express " +
			"(such as an edited link, Core fields other than core_overrides, or balance parameters)")
	}
	return raw, nil
}
