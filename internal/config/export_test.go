package config

// CoreFieldRange returns the range Validate accepts for the named Core
// field, for the bounds test in package config_test.
func CoreFieldRange(name string) (min, max int, ok bool) {
	var k Core
	for _, f := range coreFields(&k) {
		if f.name == name {
			return f.min, f.max, true
		}
	}
	return 0, 0, false
}
