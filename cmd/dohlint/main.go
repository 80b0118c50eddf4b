// Command dohlint is dohpool's project-specific static-analysis tool:
// the six internal/lint analyzers (noalloc, metricsname, buildtag,
// lockcheck, atomiccheck, golifecycle) plus the
// escape-analysis allocation gate.
//
// Three modes:
//
//	dohlint [packages]           standalone: analyze packages (default ./...)
//	dohlint escape [packages]    compile with -m=1 and fail on heap escapes
//	                             inside //dohlint:noalloc functions
//	go vet -vettool=$(which dohlint) [packages]
//	                             as a vet tool, speaking cmd/go's vet
//	                             unit-checker protocol (-V=full, -flags,
//	                             then one invocation per package unit
//	                             with a vet.cfg)
//
// Diagnostics print as file:line:col: analyzer: message, or — with
// -json anywhere on the command line — as a JSON array of
// {file,line,col,analyzer,message} objects on stdout, so CI can attach
// findings as a greppable artifact. Exit status: 0 clean, 1
// operational error, 2 diagnostics reported.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"dohpool/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// Vet protocol handshake flags come first and alone.
	for _, a := range args {
		switch {
		case strings.HasPrefix(a, "-V"):
			return printVersion()
		case a == "-flags":
			fmt.Println("[]")
			return 0
		}
	}
	// -json switches report() to machine-readable output; it can sit
	// anywhere before the patterns.
	filtered := args[:0:0]
	for _, a := range args {
		if a == "-json" || a == "--json" {
			jsonOutput = true
			continue
		}
		filtered = append(filtered, a)
	}
	args = filtered
	// A .cfg argument means cmd/go invoked us as a vet tool.
	for _, a := range args {
		if strings.HasSuffix(a, ".cfg") {
			return runVetUnit(a)
		}
	}
	if len(args) > 0 && args[0] == "escape" {
		return runEscape(args[1:])
	}
	if len(args) > 0 && args[0] == "help" {
		printHelp()
		return 0
	}
	return runStandalone(args)
}

// printVersion answers `dohlint -V=full`. cmd/go demands a reproducible
// version string to key its analysis cache; hashing our own executable
// means a rebuilt dohlint invalidates cached results, exactly like the
// upstream unitchecker.
func printVersion() int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dohlint:", err)
		return 1
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dohlint:", err)
		return 1
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintln(os.Stderr, "dohlint:", err)
		return 1
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", filepath.Base(exe), h.Sum(nil))
	return 0
}

func printHelp() {
	fmt.Println("dohlint: dohpool static analysis")
	fmt.Println()
	fmt.Println("usage: dohlint [packages]          run analyzers (default ./...)")
	fmt.Println("       dohlint escape [packages]   escape-analysis allocation gate")
	fmt.Println("       go vet -vettool=$(which dohlint) [packages]")
	fmt.Println()
	fmt.Println("analyzers:")
	for _, a := range lint.All() {
		fmt.Printf("  %-12s %s\n", a.Name, a.Doc)
	}
	fmt.Printf("  %-12s backs noalloc with the compiler's -m escape diagnostics\n", "escape")
}

// vetConfig is the JSON unit description cmd/go hands a vet tool, one
// per package build unit (the subset of fields dohlint consumes).
type vetConfig struct {
	ID                        string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runVetUnit analyzes one vet unit. Facts files are written even when
// empty — cmd/go treats the VetxOutput as the action's build artifact
// and fails the run if it is missing.
func runVetUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dohlint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "dohlint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("dohlint-facts\n"), 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "dohlint:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	// Test variants ("pkg [pkg.test]", "pkg_test [pkg.test]") re-present
	// the same non-test sources plus test files. The analyzers skip test
	// files by design, so analyzing those units would only duplicate
	// every diagnostic; the plain library unit covers the tree.
	if strings.Contains(cfg.ID, " [") || strings.HasSuffix(cfg.ImportPath, ".test") {
		return 0
	}
	if len(cfg.GoFiles) == 0 {
		return 0
	}
	pkg, err := typeCheckUnit(&cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "dohlint:", err)
		return 1
	}
	diags, err := lint.RunAnalyzers(pkg, lint.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "dohlint:", err)
		return 1
	}
	return report(diags)
}

func typeCheckUnit(cfg *vetConfig) (*lint.LoadedPackage, error) {
	fset := token.NewFileSet()
	return lint.TypeCheck(fset, cfg.ImportPath, cfg.Dir, cfg.GoFiles, cfg.PackageFile, cfg.ImportMap)
}

func runStandalone(patterns []string) int {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dohlint:", err)
		return 1
	}
	pkgs, err := lint.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dohlint:", err)
		return 1
	}
	var all []lint.Diagnostic
	for _, pkg := range pkgs {
		diags, err := lint.RunAnalyzers(pkg, lint.All())
		if err != nil {
			fmt.Fprintln(os.Stderr, "dohlint:", err)
			return 1
		}
		all = append(all, diags...)
	}
	return report(all)
}

func runEscape(patterns []string) int {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dohlint:", err)
		return 1
	}
	diags, err := lint.EscapeGate(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dohlint:", err)
		return 1
	}
	return report(diags)
}

// jsonOutput makes report emit a JSON array on stdout instead of the
// human file:line:col lines on stderr.
var jsonOutput bool

// jsonDiagnostic is the machine-readable diagnostic shape emitted by
// `dohlint -json` and archived by the CI lint job.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// report prints diagnostics and returns the process exit code: 2 with
// findings (the conventional vet-tool diagnostic exit), 0 clean. Human
// output goes to stderr; -json always writes a well-formed (possibly
// empty) array to stdout so the artifact exists even on a clean run.
func report(diags []lint.Diagnostic) int {
	if jsonOutput {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "dohlint:", err)
			return 1
		}
		if len(diags) == 0 {
			return 0
		}
		return 2
	}
	if len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d.String())
	}
	return 2
}
