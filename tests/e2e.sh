#!/bin/sh
# The psgmae CLI end to end in fresh processes: every output byte-identical on
# one core (taskset -c 0) and on every core the process may use, a resumed run
# equal to the uninterrupted one, and the preprocessing of 90-min nights (three
# 64-epoch blocks each) byte-identical on one core and on every core.
#
# Usage: tests/e2e.sh OUTDIR
# OUTDIR is created if needed; the script runs `python` from PATH on the
# package under src/ next to this script, and exits non-zero on the first
# failed command or differing file.
set -eu
if [ "$#" -ne 1 ]; then
  echo "usage: $0 OUTDIR" >&2
  exit 2
fi
mkdir -p "$1"
root=$(cd "$1" && pwd)
export PYTHONPATH="$(cd "$(dirname "$0")/.." && pwd)/src${PYTHONPATH:+:$PYTHONPATH}"

config="$root/config.ini"
printf '[mae]\ntarget_channels = EOG horizontal, EMG submental, EEG Pz-Oz\n[train]\ninput_channel = EEG Fpz-Cz\nmax_epochs = 2\n' > "$config"
for cores in one every; do
  pin=""
  if [ "$cores" = one ]; then pin="taskset -c 0"; fi
  out="$root/e2e-$cores"
  $pin python -m psgmae.cli synth --out "$out/raw" --seed 0 --minutes 6 --subjects 4
  pairs=""
  for i in 0 1 2 3; do
    pairs="$pairs --psg raw/S00$i-PSG.edf --hypnogram raw/S00$i-Hypnogram.edf"
  done
  # paths relative to $out, so that the two manifests name the same files
  (cd "$out" && $pin python -m psgmae.cli preprocess $pairs --input-channel "EEG Fpz-Cz" \
    --targets "EOG horizontal,EMG submental,EEG Pz-Oz" --split 0.5,0.25,0.25 --out data \
    > preprocess.txt)
  $pin python -m psgmae.cli train --config "$config" --data "$out/data" --out "$out/run"
  # one epoch, then resumed to two in the same --out: the same bytes as the
  # uninterrupted run, calibration included (it runs again on resume)
  sed 's/^max_epochs = 2$/max_epochs = 1/' "$config" > "$out/config-1.ini"
  $pin python -m psgmae.cli train --config "$out/config-1.ini" --data "$out/data" \
    --out "$out/resumed"
  $pin python -m psgmae.cli train --config "$config" --data "$out/data" \
    --out "$out/resumed" --resume "$out/resumed/checkpoint.psgmae"
  cmp "$out/run/checkpoint.psgmae" "$out/resumed/checkpoint.psgmae"
  cmp "$out/run/metrics.log" "$out/resumed/metrics.log"
  # the masked-scope loss: its token gather and its mask draw, two epochs
  sed 's/^target_channels = /loss_scope = masked\ntarget_channels = /' "$config" \
    > "$out/config-masked.ini"
  grep -qx 'loss_scope = masked' "$out/config-masked.ini"
  $pin python -m psgmae.cli train --config "$out/config-masked.ini" --data "$out/data" \
    --out "$out/masked"
  $pin python -m psgmae.cli eval --checkpoint "$out/run/checkpoint.psgmae" \
    --data "$out/data" --split all --out "$out/report" > "$out/report.txt"
  $pin python -m psgmae.cli eval --checkpoint "$out/run/checkpoint.psgmae" \
    --data "$out/data" --split test --physical --out "$out/physical" > "$out/physical.txt"
  $pin python -m psgmae.cli reconstruct --checkpoint "$out/run/checkpoint.psgmae" \
    --data "$out/data" --epoch-index 0 --out "$out/epoch0.csv"
done
for file in data/epochs.psgepo data/manifest.json preprocess.txt run/checkpoint.psgmae \
    run/metrics.log masked/checkpoint.psgmae masked/metrics.log report/mse_table.csv \
    report/mse_table.txt report.txt physical/mse_table.csv physical/mse_table.txt \
    physical.txt epoch0.csv; do
  cmp "$root/e2e-one/$file" "$root/e2e-every/$file"
done

nights="$root/nights"
python -m psgmae.cli synth --out "$nights/raw" --seed 1 --minutes 90 --subjects 2
pairs=""
for i in 0 1; do
  pairs="$pairs --psg $nights/raw/S00$i-PSG.edf --hypnogram $nights/raw/S00$i-Hypnogram.edf"
done
for cores in one every; do
  pin=""
  if [ "$cores" = one ]; then pin="taskset -c 0"; fi
  $pin python -m psgmae.cli preprocess $pairs --input-channel "EEG Fpz-Cz" \
    --targets "EOG horizontal,EMG submental,EEG Pz-Oz" --out "$nights/$cores" \
    > "$nights/$cores.txt"
done
for file in epochs.psgepo manifest.json; do
  cmp "$nights/one/$file" "$nights/every/$file"
done
cmp "$nights/one.txt" "$nights/every.txt"
echo "e2e: every output byte-identical on one core and on every core"
