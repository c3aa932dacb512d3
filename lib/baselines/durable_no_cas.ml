(* Negative control for the durable WAL-backed counter: identical to
   [Core.Durable_counter] except that every conditional store write
   (chunk appends, manifest updates, the recovery epoch fence) becomes a
   blind put. With per-link FIFO delivery the blindness is masked — the
   store applies an ordered request stream — so the model checker's
   reordering adversary must find the lost update: a retried stale
   manifest write from the pre-crash incarnation, delivered after the
   recovery's epoch fence, silently rolls the manifest's epoch back, and
   the oswald spec monitor flags the regression (stored counterexample
   in test/data).

   The cadence is deliberately aggressive — roll after every record,
   snapshot at every count — so manifest traffic (the writes CAS
   protects) appears inside the very first operation, within reach of
   bounded exploration. [Core.Durable_counter] under the same cadence
   and the same adversary stays clean: the stale write arrives as a
   compare-and-swap against a superseded manifest and bounces off
   (test_mc pins the pairing). *)

module D = Core.Durable_counter.Protocol

include Counter.Host.Make (struct
  include D

  let name = "durable-no-cas"

  let describe =
    "broken: durable counter whose store writes skip compare-and-swap, so \
     a reordered stale write silently overwrites newer store state"

  let create ?seed ?delay ?faults ~n () =
    D.create_raw ?seed ?delay ?faults ~cas:false ~chunk_records:1
      ~snap_every:1 ~n ()
end)
