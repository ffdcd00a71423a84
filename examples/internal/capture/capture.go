// Package capture lets the examples' Example functions pin their
// programs' output. go test compares an example's output against its
// "// Output:" comment, whose lines carry no trailing spaces, while the
// tables the programs print pad their last column.
package capture

import (
	"fmt"
	"os"
	"strings"
)

// Trimmed runs fn with os.Stdout redirected to a temporary file, then
// prints what fn wrote with trailing spaces removed from every line.
func Trimmed(fn func()) error {
	f, err := os.CreateTemp("", "example-stdout-*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	fn()
	os.Stdout = stdout
	out, err := os.ReadFile(f.Name())
	if err != nil {
		return err
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(out), "\n"), "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}
	return nil
}
