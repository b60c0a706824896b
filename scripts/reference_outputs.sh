#!/usr/bin/env bash
# Write one source tree's reference outputs into OUT, a directory that must not exist yet:
# both reference scripts (the study one dumping replicate 0), then `analyze --data` on the
# dumped replicate, first as dumped, then as a copy that starts with a byte-order mark and
# ends every line with CRLF (the csv module writes CRLF already): the two rewrites of the
# bulk CSV reader. The tree's own package and scripts are run, never an installed genecon.
#
#     scripts/reference_outputs.sh TREE OUT
set -euo pipefail
if [ "$#" -ne 2 ]; then
  echo "usage: $0 TREE OUT" >&2
  exit 2
fi
tree=$(cd "$1" && pwd)
out=$2
export PYTHONPATH="$tree/src"
package=$(python -c 'import genecon; print(genecon.__file__)')
if [ "$package" != "$tree/src/genecon/__init__.py" ]; then
  echo "$0: genecon imports from $package, not from $tree/src" >&2
  exit 1
fi
python -X dev -W error "$tree/scripts/run_reference_analysis.py" --out-dir "$out/analysis"
python -X dev -W error "$tree/scripts/run_reference_study.py" --dump-replicate 0 \
  --out-dir "$out/study"
mkdir "$out/csv"
{ printf '\357\273\277'; sed 's/\r*$/\r/' "$out/study/replicate_000.csv"; } > "$out/csv/bom_crlf.csv"
for data in "$out/study/replicate_000.csv" "$out/csv/bom_crlf.csv"; do
  name=$(basename "$data" .csv)
  python -X dev -W error -m genecon.cli analyze --data "$data" --design half-sib \
    --grid "$out/analysis/inputs/growth_rate_grid.json" --J 3 \
    --out "$out/csv/${name}_report.json" --svg "$out/csv/${name}_figure.svg"
done
