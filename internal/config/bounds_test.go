package config_test

import (
	"reflect"
	"testing"

	"hetwire"
	"hetwire/internal/config"
)

// TestEveryCoreFieldBounded: Validate bounds every int field of Core. For
// each field, 0, -1 and 3 (not a power of two) are each rejected or
// simulate without a panic or an error, and one past the field's maximum is
// rejected. The maximum is only validated, never simulated: it can size
// tables of several MiB.
func TestEveryCoreFieldBounded(t *testing.T) {
	if err := config.Default().Validate(); err != nil {
		t.Fatalf("the Table 1 defaults are rejected: %v", err)
	}
	core := reflect.TypeOf(config.Core{})
	for i := 0; i < core.NumField(); i++ {
		name := core.Field(i).Name
		if core.Field(i).Type.Kind() != reflect.Int {
			t.Fatalf("Core.%s is a %v; extend this test", name, core.Field(i).Type)
		}
		_, max, ok := config.CoreFieldRange(name)
		if !ok {
			t.Errorf("Validate has no range for Core.%s", name)
			continue
		}
		with := func(v int) config.Config {
			cfg := config.Default()
			reflect.ValueOf(&cfg.Core).Elem().Field(i).SetInt(int64(v))
			return cfg
		}
		for _, v := range []int{0, -1, 3} {
			cfg := with(v)
			if cfg.Validate() != nil {
				continue
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("Core.%s = %d passes Validate, then the run panics: %v", name, v, r)
					}
				}()
				if _, err := hetwire.RunBenchmark(cfg, "gcc", 2000); err != nil {
					t.Errorf("Core.%s = %d passes Validate, then the run fails: %v", name, v, err)
				}
			}()
		}
		if err := with(max + 1).Validate(); err == nil {
			t.Errorf("Core.%s = %d, one past its maximum, passes Validate", name, max+1)
		}
	}
}
