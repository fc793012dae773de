(** The sumcheck protocol (Listing 1 of the paper, generalized to products of
    multilinear tables).

    The prover convinces the verifier that
    [sum_{b in {0,1}^L} comb(T_1(b), ..., T_k(b)) = claim], where each [T_j]
    is a multilinear table of size [2^L] and [comb] is a polynomial of total
    degree at most [degree] in its arguments.

    Each of the [L] rounds the prover sends the round polynomial
    [g_i(t) = sum_b comb(...)] restricted to the current top variable,
    tabulated at [t = 0..degree]; the verifier checks
    [g_i(0) + g_i(1) = previous claim], derives the Fiat-Shamir challenge
    [r_i], and reduces to the claim [g_i(r_i)]. After all rounds the claim
    must equal [comb] of the tables' multilinear evaluations at [r], which the
    caller ties to commitment openings.

    This is the dominant task in Spartan+Orion (~70% of runtime, Fig. 6); the
    [stats] record feeds the NoCap performance model. *)

module Gf = Zk_field.Gf

type proof = { round_polys : Gf.t array array }
(** [round_polys.(i)] has [degree + 1] evaluations of [g_i] at [0..degree]. *)

type stats = {
  rounds : int;
  mults : int; (** field multiplications performed by the prover *)
  adds : int; (** field additions performed by the prover *)
}

type prover_result = {
  proof : proof;
  challenges : Gf.t array; (** the random point r, one entry per round *)
  final_values : Gf.t array; (** each table folded down to its MLE at r *)
  stats : stats;
}

(** First-order description of a combine polynomial: an optional shared
    factor column times a sum of [coeff * product of columns] terms,

    [comb(v) = v.(factor) * sum_i coeff_i * prod_{j in cols_i} v.(j)].

    It covers every in-tree sumcheck: Spartan's [eq * (a*b - c)] and
    [m * z], Aggregate's [eq * sum_i rho_i (a_i b_i - c_i)] and
    Grand_product's [eq * even * odd]. Unlike a closure, a description can
    be evaluated by the native round kernel ([Native.sumcheck_round]),
    which fuses each round's fold into the next round's evaluation. *)
module Comb : sig
  type term = { coeff : Gf.t; cols : int array (** table indices; [] is 1 *) }
  type t = { factor : int option; terms : term array }

  val term : ?coeff:Gf.t -> int list -> term
  (** [term ~coeff cols]; [coeff] defaults to [Gf.one]. *)

  val eval : t -> Gf.t array -> Gf.t
  (** The polynomial at one point (one value per table): the boxed
      evaluator, and the closure {!prove_arrays} checks the kernel
      against. *)

  val mults : t -> int
  (** Field multiplications per evaluation, for [stats]: one per product
      factor beyond a term's first, one per coefficient other than +-1,
      one for the shared factor. *)

  val max_tables : int
  val max_degree : int
  val max_terms : int
  (** The native kernel's fixed limits (256 tables, degree 8, 256 terms). *)
end

val prove :
  ?engine:Zk_pcs.Engine.t ->
  ?comb_mults:int ->
  Zk_hash.Transcript.t ->
  degree:int ->
  tables:Gf.t array array ->
  comb:(Gf.t array -> Gf.t) ->
  claim:Gf.t ->
  prover_result
(** {!prove_streaming} without a budget, over boxed tables (wrapped as
    RAM-backed {!Nocap_vec.Spill} vectors; they are not mutated). [comb]
    receives one value per table; [comb_mults] is the number of field
    multiplications one [comb] call performs (default 0), so [stats] can
    account for them. The claim is absorbed into the transcript, so prover
    and verifier bind to it. [engine] supplies the worker pool for round
    evaluation and folds; the proof is byte-identical for every engine.
    A closure runs through the same round engine as {!prove_comb}, but
    every point goes through the boxed per-point loop: in-tree provers use
    {!prove_comb}, and the closure form stays for ad-hoc polynomials. *)

val prove_streaming :
  ?engine:Zk_pcs.Engine.t ->
  ?comb_mults:int ->
  ?budget_bytes:int ->
  Zk_hash.Transcript.t ->
  degree:int ->
  tables:Nocap_vec.Spill.t array ->
  comb:(Gf.t array -> Gf.t) ->
  claim:Gf.t ->
  prover_result
(** The sumcheck prover over spillable tables; arguments as in {!prove}.
    Without [budget_bytes] the tables are copied once into unboxed
    {!Nocap_vec.Fv} vectors and every round evaluates and folds them in
    place. With a budget, rounds whose residual tables exceed half of it
    are streamed (recompute-halves): no folded table generation is ever
    stored — after j rounds the current table is recomputed on the fly as
    an eq-weighted sum of strided slices of the original, read in
    budget-sized blocks, at the cost of one full pass over the original
    tables per streamed round. Once the residual fits half the budget it
    is materialized into RAM and the in-place rounds finish. The result —
    proof bytes, challenges, final values, stats — is the same for every
    budget, and equal to {!prove_arrays} on the same data. [tables] are
    read, never written; the caller frees them.
    @raise Invalid_argument if [budget_bytes <= 0]. *)

val prove_comb :
  ?engine:Zk_pcs.Engine.t ->
  ?budget_bytes:int ->
  Zk_hash.Transcript.t ->
  degree:int ->
  tables:Nocap_vec.Spill.t array ->
  comb:Comb.t ->
  claim:Gf.t ->
  prover_result
(** {!prove_streaming} with a {!Comb} description instead of a closure:
    the same transcript, rounds and result, with [stats] counting
    [Comb.mults comb] multiplications per evaluation. Rounds run in the
    native kernel (AVX2 in [Simd] mode, branch-free scalar C in
    [Scalar]); under [Native.Off] they run the boxed loop over
    [Comb.eval comb].
    @raise Invalid_argument if a column index is not below the number of
    tables, a term's degree (plus one for the shared factor) exceeds
    [degree], [degree] is outside [1, Comb.max_degree], a coefficient is
    not canonical, or there are more than [Comb.max_tables] tables or
    [Comb.max_terms] terms — before anything is absorbed. *)

val round_step :
  ?fold:Gf.t -> degree:int -> comb:Comb.t -> Nocap_vec.Fv.t array -> half:int -> Gf.t array
(** One round of the engine, serially, for the kernel bench: the round
    polynomial (at [0..degree]) over the pairs [(b, b + half)],
    [b < half], of the tables. With [fold = r] the tables first fold with
    [r] from length [4 * half] to [2 * half] in place, inside the same
    pass.
    @raise Invalid_argument as {!prove_comb}, or if a table is shorter
    than [4 * half] (with [fold]) or [2 * half]. *)

val prove_arrays :
  ?engine:Zk_pcs.Engine.t ->
  ?comb_mults:int ->
  Zk_hash.Transcript.t ->
  degree:int ->
  tables:Gf.t array array ->
  comb:(Gf.t array -> Gf.t) ->
  claim:Gf.t ->
  prover_result
(** Boxed-array reference implementation of {!prove_streaming}, written
    independently of it: same chunking, same combine order, same
    arithmetic, byte-identical proof and challenges. Kept as the
    correctness oracle the equivalence tests and the memory bench compare
    against. *)

type verifier_result = {
  point : Gf.t array;
  value : Gf.t; (** the reduced claim comb(T_1(r), ..., T_k(r)) must equal *)
}

val verify :
  Zk_hash.Transcript.t ->
  degree:int ->
  num_vars:int ->
  claim:Gf.t ->
  proof ->
  (verifier_result, Zk_pcs.Verify_error.t) result
(** Replays the rounds, checking [g_i(0) + g_i(1)] against the running claim.
    The caller must still check [result.value] against oracle evaluations of
    the tables at [result.point]. Total on arbitrary proofs: a wrong round
    count or round-polynomial degree is [Shape], a failed running-claim
    check is [Sumcheck_mismatch], and [degree < 1] is [Params] (a degree-0
    round polynomial could not even be length-checked against [g(1)]). *)
