#!/bin/sh
# Documentation hygiene checks, run by the CI docs job and locally via
#   ./scripts/docscheck.sh
# 1. gofmt cleanliness,
# 2. every internal/* package carries a real `// Package ...` comment,
# 3. every markdown file referenced from doc.go or README.md exists,
# 4. every specfemvet analyzer's Doc names a DESIGN.md anchor that
#    resolves to a real DESIGN.md heading,
# 5. every experiment id `go run ./cmd/paperfigs -list` prints has a row
#    in the "Experiment index" table of DESIGN.md and of EXPERIMENTS.md.
set -u
fail=0

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "docscheck: gofmt needed on:" >&2
    echo "$unformatted" >&2
    fail=1
fi

for dir in internal/*/; do
    pkg=${dir#internal/}
    pkg=${pkg%/}
    found=0
    for f in "$dir"*.go; do
        case "$f" in *_test.go) continue ;; esac
        if grep -q "^// Package $pkg " "$f"; then
            found=1
            break
        fi
    done
    if [ "$found" -eq 0 ]; then
        echo "docscheck: internal/$pkg has no '// Package $pkg ...' comment" >&2
        fail=1
    fi
done

for src in doc.go README.md; do
    for ref in $(grep -oE '[A-Za-z0-9_./-]*[A-Za-z0-9_]\.md' "$src" | sort -u); do
        if [ ! -f "$ref" ]; then
            echo "docscheck: $src references $ref which does not exist" >&2
            fail=1
        fi
    done
done

# Analyzer Doc anchors: each file declaring an &Analyzer{ must cite a
# DESIGN.md#anchor, and every cited anchor must slugify from a real
# DESIGN.md heading (GitHub rule: lowercase, spaces to dashes, other
# punctuation dropped).
anchors=$(grep '^#' DESIGN.md | sed 's/^#*[[:space:]]*//' \
    | tr '[:upper:]' '[:lower:]' | sed 's/[^a-z0-9 -]//g; s/ /-/g')
for f in internal/analysis/*.go; do
    case "$f" in *_test.go) continue ;; esac
    grep -q '&Analyzer{' "$f" || continue
    refs=$(grep -oE 'DESIGN\.md#[a-z0-9-]+' "$f" | sort -u)
    if [ -z "$refs" ]; then
        echo "docscheck: $f declares an Analyzer but cites no DESIGN.md anchor" >&2
        fail=1
        continue
    fi
    for ref in $refs; do
        a=${ref#DESIGN.md#}
        if ! printf '%s\n' "$anchors" | grep -qx "$a"; then
            echo "docscheck: $f cites $ref but DESIGN.md has no heading '$a'" >&2
            fail=1
        fi
    done
done

# Experiment ids: the first cell of each table row under the
# "## Experiment index" heading, up to the next "## " heading.
if ! list=$(go run ./cmd/paperfigs -list) || [ -z "$list" ]; then
    echo "docscheck: go run ./cmd/paperfigs -list failed" >&2
    fail=1
fi
for doc in DESIGN.md EXPERIMENTS.md; do
    rows=$(awk '/^## / { on = ($0 == "## Experiment index") }
        on && /^\|/ { split($0, c, "|"); gsub(/ /, "", c[2]); print c[2] }' "$doc")
    for id in $(printf '%s\n' "$list" | awk '{ print $1 }'); do
        if ! printf '%s\n' "$rows" | grep -qxF "$id"; then
            echo "docscheck: paperfigs id $id has no row in $doc's experiment index" >&2
            fail=1
        fi
    done
done

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "docscheck: ok"
