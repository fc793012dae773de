(** Sumcheck with verifier challenges drawn from GF(p^2).

    The alternative to Sec. VII-A's 3x repetition: one protocol run whose
    per-round soundness error is ~d/p^2 instead of ~d/p, at the price of
    extension-field arithmetic once the first challenge binds (3 base
    multiplications per extension multiplication). The claimed sum and the
    tables live in the base field; the reduced claim and evaluation point are
    extension elements.

    This prover stays on a boxed [Gf2.t array -> Gf2.t] closure: the
    native round kernel behind {!Sumcheck.prove_comb} computes in the base
    field only, and this ablation prover is not on any hot path. *)

module Gf = Zk_field.Gf
module Gf2 = Zk_field.Gf2

type proof = { round_polys : Gf2.t array array }

type prover_result = {
  proof : proof;
  challenges : Gf2.t array;
  final_values : Gf2.t array;
  base_mults_equivalent : int;
      (** prover cost in base-field multiplications (3 per extension mult),
          for the repetition-vs-extension ablation *)
}

val prove :
  Zk_hash.Transcript.t ->
  degree:int ->
  tables:Gf.t array array ->
  comb:(Gf2.t array -> Gf2.t) ->
  comb_mults:int ->
  claim:Gf.t ->
  prover_result

type verifier_result = { point : Gf2.t array; value : Gf2.t }

val verify :
  Zk_hash.Transcript.t ->
  degree:int ->
  num_vars:int ->
  claim:Gf.t ->
  proof ->
  (verifier_result, string) result

val eval_mle_ext : Gf.t array -> Gf2.t array -> Gf2.t
(** Evaluate a base-field table's MLE at an extension point (the oracle check
    the caller performs on [final_values]). *)
