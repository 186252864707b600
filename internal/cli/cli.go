// Package cli is the command line the binaries under cmd/ share: flags
// only, -h lists them, and a bad command line is refused in one line.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// Parse parses the command line of the binary name, -h listing the flags.
// A bad flag or value, or a stray argument — after which the flag package
// would stop parsing, silently dropping every flag behind it — is fatal.
func Parse(name string) {
	flag.CommandLine.Init(name, flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard) // the error is reported once, below
	switch err := flag.CommandLine.Parse(os.Args[1:]); {
	case errors.Is(err, flag.ErrHelp):
		flag.CommandLine.SetOutput(os.Stderr)
		flag.Usage()
		os.Exit(0)
	case err != nil:
		Fatal("%v", err)
	case flag.NArg() > 0:
		Fatal("unexpected argument %q: %s takes flags only", flag.Arg(0), name)
	}
}

// Fatal reports a command-line error in one line and exits 2.
func Fatal(format string, args ...any) {
	name := flag.CommandLine.Name()
	fmt.Fprintf(os.Stderr, name+": "+format+" ("+name+" -h lists the flags)\n", args...)
	os.Exit(2)
}
