#!/bin/sh
# Regenerate traces/chaos.golden through the CLI:
#
#   dune build && sh traces/chaos_golden.sh > traces/chaos.golden
#
# Every chaos scenario at seeds 1-3, then every planted mutation against
# every scenario at seed 1, all with the online checker on.  Each block is
# headed by the run's scenario, seed, mutation and exit code.  The traces
# test suite regenerates the same text in-process from Chaos.scenarios and
# Config.mutations, so keep these two lists in their order.
set -u
dsm=${1:-_build/default/bin/dsm_cli.exe}

scenarios="mix dictionary solver crash-restart owner-crash failover power-failure
partition split-brain shard obj-counter obj-gset obj-2pset obj-queue obj-dict obj-board"
mutations="skip-invalidation skip-writestamp-merge reorder-apply-ack ignore-epoch-fence
skip-shadow-replication truncate-wal-early takeover-without-quorum
prune-share-set-wrongly merge-drops-op figure4-literal skip-install-merge"

block() {
  out=$("$dsm" chaos "$1" --seed "$2" --online-check --mutation "$3")
  code=$?
  printf '== %s seed %s mutation %s exit %s\n%s\n' "$1" "$2" "$3" "$code" "$out"
}

for s in $scenarios; do
  for k in 1 2 3; do block "$s" "$k" none; done
done
for m in $mutations; do
  for s in $scenarios; do block "$s" 1 "$m"; done
done
