package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Scenario files: a Config serializes to JSON so experiment setups can be
// versioned and shared (ns-2 users keep .tcl scenario files; this is the
// equivalent). The Trace recorder is runtime-only and not serialized.

// Save writes the configuration to path as indented JSON.
func (c Config) Save(path string) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("scenario: marshal: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	return nil
}

// ResolveRef loads a scenario by reference: a path to a scenario JSON
// file, or the bare name of a committed library entry, resolved as
// scenarios/<name>.json relative to the working directory (the repo
// keeps its generated-scenario library there). A path wins when both
// exist.
func ResolveRef(ref string) (Config, error) {
	if _, err := os.Stat(ref); err == nil {
		return Load(ref)
	}
	lib := filepath.Join("scenarios", ref+".json")
	if _, err := os.Stat(lib); err == nil {
		return Load(lib)
	}
	return Config{}, fmt.Errorf("scenario: %q is neither a scenario file nor a scenarios/ library name", ref)
}

// Load reads a configuration from path. Fields absent from the file keep
// the zero value, so files usually start from a Default and override; the
// result is validated before being returned.
func Load(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("scenario: %w", err)
	}
	var c Config
	if err := Decode(bytes.NewReader(data), &c); err != nil {
		return Config{}, fmt.Errorf("scenario: parse %s: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return c, nil
}

// Decode reads exactly one JSON config object from r into c, layered
// over c's current values. Unknown fields and anything but whitespace
// after the object are errors: a typoed or retired knob, or a second
// config appended to the first, must fail loudly instead of running a
// silently different simulation. Scenario files and simd request
// bodies both decode through it.
func Decode(r io.Reader, c *Config) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(c); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the config object")
	}
	return nil
}
