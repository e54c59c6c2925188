package main

import (
	"strings"
	"testing"
	"time"
)

// TestValidateTimeouts: -rpc-timeout rejects a negative value with an
// error that names the flag; it used to be silently ignored.
func TestValidateTimeouts(t *testing.T) {
	if err := validateTimeouts(0); err != nil {
		t.Errorf("zero rpc-timeout (= default) rejected: %v", err)
	}
	if err := validateTimeouts(30 * time.Second); err != nil {
		t.Errorf("valid timeout rejected: %v", err)
	}
	err := validateTimeouts(-time.Second)
	if err == nil || !strings.Contains(err.Error(), "-rpc-timeout") {
		t.Errorf("negative -rpc-timeout: err = %v, want an error naming the flag", err)
	}
}
