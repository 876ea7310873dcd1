(** Machine-checked reproduction claims.

    EXPERIMENTS.md states which of the paper's qualitative findings
    this reproduction reproduces; this module checks them against an
    actual {!Runner.results}, so the claims cannot silently rot as the
    code evolves. Each check returns a verdict with the numbers it
    derived; the renderer prints a ✔/✘ checklist, and the test suite
    asserts the expected verdicts on a small sweep. *)

type verdict = {
  claim : string;  (** the paper's finding, paraphrased *)
  holds : bool;
  detail : string;  (** the measured numbers behind the verdict *)
}

val check_all : Runner.results -> verdict list
(** The checklist:
    - HMN's mean objective beats R and RA on a large majority of
      scenario/cluster cells (paper: all rows);
    - HMN's advantage over RA shrinks from the lowest to the highest
      high-level ratio (migration starves as hosts fill);
    - R and RA objectives are within 10% of each other on most cells
      (routing does not move the placement objective);
    - HMN's failure count does not exceed the A\*Prune-based RA's by
      more than a handful (both route with A\*Prune);
    - simulated experiment time grows with the ratio for HMN on both
      clusters;
    - HMN's mean simulated experiment time beats R's on most cells;
    - the median within-scenario objective↔makespan Pearson
      correlation is at least 0.5 (paper: 0.7). *)

val render : verdict list -> string
