module Vec = Numeric.Vec

(* Opcodes.  Each slot k reads:
     op_const : value c.(k)
     op_term  : coeff c.(k), exponent segment [lo.(k), hi.(k)) of
                term_var/term_expt (a distinct monomial's segment,
                shared by every term slot with the same exponents)
     op_sum   : constant bias c.(k), child segment [lo.(k), hi.(k)) of child
     op_max   : child segment [lo.(k), hi.(k)) of child
     op_scale : factor c.(k), single child slot lo.(k)
   Slots are in topological (children-first) order; the root is [root]. *)
let op_const = 0

let op_term = 1

let op_sum = 2

let op_max = 3

let op_scale = 4

type t = {
  n_vars : int;
  root : int;
  op : int array;
  lo : int array;
  hi : int array;
  c : float array;
  term_var : int array;
  term_expt : float array;
  (* Segment starts of the distinct monomials, ascending: monomial m
     is [mono.(m), mono.(m+1)), and the last cell is the entry count.
     Term segments are these segments and nothing else. *)
  mono : int array;
  child : int array;
}

type workspace = {
  v : float array;  (* per-slot values *)
  adj : float array;  (* per-slot adjoints *)
  w : float array;  (* softmax weights, parallel to [child] *)
  s : float array;  (* scalar scratch (softmax normaliser) *)
  mv : float array;  (* exp of each monomial, at its segment start *)
  vd : float array;  (* per-slot value tangents (HVP forward sweep) *)
  adjd : float array;  (* per-slot adjoint tangents (HVP reverse sweep) *)
  wd : float array;  (* softmax weight tangents, parallel to [child] *)
  sel : int array;  (* per-slot first-maximising branch (maxima only) *)
  (* Masked-HVP state, valid from [hvp_mask] until the workspace's next
     forward sweep (see the .mli invariants). *)
  mutable mask_mu : float;
  mutable mask_valid : bool;  (* sets below match [mask_free]/[mask_mu] *)
  mask_free : bool array;  (* free set the mask was built for *)
  mutable n_active : int;
  active : int array;  (* slots with a possibly nonzero value tangent *)
  mutable n_union : int;
  union : int array;  (* [active] plus adjoint-tangent-reachable slots *)
  flags : Bytes.t;  (* scratch: bit0 = active, bit1 = adjoint-tangent *)
}

(* The builder writes slots and their term/child segments straight into
   growable flat arrays as a front end's walk returns from each node —
   the walks are children-first, so a slot's segment entries land just
   below the slot's own index and segments stay contiguous.  Flat
   arrays rather than boxed per-slot instructions: on deep-MDG tapes
   list cells and variant boxes would dominate construction time. *)
module Builder = struct
  type tape = t

  type t = {
    mutable op : int array;
    mutable lo : int array;
    mutable hi : int array;
    mutable c : float array;
    mutable nslots : int;
    mutable term_var : int array;
    mutable term_expt : float array;
    mutable nentries : int;
    mutable child : int array;
    mutable nchildren : int;
    (* Highest variable index of any term pushed so far. *)
    mutable max_var : int;
    (* Constant slots carry no gradient and never change, so equal
       values share one slot (the objective has thousands of identical
       latency constants as max branches). *)
    consts : (float, int) Hashtbl.t;
    (* The distinct monomials pushed so far: monomial m is the entry
       segment [mono.(m), mono.(m+1)), and mono.(nmono) is their end. *)
    mutable mono : int array;
    mutable nmono : int;
    (* Open-addressing set of the monomials, by segment contents: a
       cell holds a monomial index + 1, 0 = empty. *)
    mutable pool : int array;
  }

  let create () =
    let cap = 256 in
    {
      op = Array.make cap 0;
      lo = Array.make cap 0;
      hi = Array.make cap 0;
      c = Array.make cap 0.0;
      nslots = 0;
      term_var = Array.make cap 0;
      term_expt = Array.make cap 0.0;
      nentries = 0;
      child = Array.make cap 0;
      nchildren = 0;
      max_var = -1;
      consts = Hashtbl.create 64;
      mono = Array.make cap 0;
      nmono = 0;
      pool = Array.make cap 0;
    }

  let grow a zero =
    let a' = Array.make (2 * Array.length a) zero in
    Array.blit a 0 a' 0 (Array.length a);
    a'

  (* Append one slot and return its index; its segment entries must
     already be pushed, contiguously. *)
  let slot b o l h cv =
    if b.nslots = Array.length b.op then begin
      b.op <- grow b.op 0;
      b.lo <- grow b.lo 0;
      b.hi <- grow b.hi 0;
      b.c <- grow b.c 0.0
    end;
    let k = b.nslots in
    b.op.(k) <- o;
    b.lo.(k) <- l;
    b.hi.(k) <- h;
    b.c.(k) <- cv;
    b.nslots <- k + 1;
    k

  let push_entry b var e =
    if b.nentries = Array.length b.term_var then begin
      b.term_var <- grow b.term_var 0;
      b.term_expt <- grow b.term_expt 0.0
    end;
    b.term_var.(b.nentries) <- var;
    b.term_expt.(b.nentries) <- e;
    b.nentries <- b.nentries + 1

  let push_child b s =
    if b.nchildren = Array.length b.child then b.child <- grow b.child 0;
    b.child.(b.nchildren) <- s;
    b.nchildren <- b.nchildren + 1

  let const b v =
    match Hashtbl.find_opt b.consts v with
    | Some s -> s
    | None ->
        let s = slot b op_const 0 0 v in
        Hashtbl.add b.consts v s;
        s

  (* Monomial pool.  Under x_i = ln p_i every cost term is c·exp(a·x)
     with one of a handful of exponent vectors per node and edge, so a
     tape holds far fewer distinct monomials than term slots.  Each
     distinct segment is stored once and its exp computed once per
     sweep; a term slot whose segment (variables and exponent bits, in
     stored order) was pushed before points at the first occurrence.
     The sum is taken in the same order either way, so sharing is
     invisible in every result. *)
  let seg_hash b l h =
    let acc = ref (h - l) in
    for j = l to h - 1 do
      (* Sign and exponent folded onto the mantissa's low bits, which
         are zero for exponents like ±1 and ±0.5. *)
      let e = Int64.bits_of_float b.term_expt.(j) in
      let e = Int64.to_int e lxor Int64.to_int (Int64.shift_right_logical e 52) in
      acc := (((!acc * 31) + b.term_var.(j)) * 31) + e
    done;
    (!acc * 0x9E3779B1) land max_int

  (* Segment [l, h) has monomial m's variables and exponent bits. *)
  let same_seg b l h m =
    let l' = b.mono.(m) in
    b.mono.(m + 1) - l' = h - l
    &&
    let same = ref true and j = ref 0 in
    while !same && l + !j < h do
      if
        b.term_var.(l + !j) <> b.term_var.(l' + !j)
        || Int64.bits_of_float b.term_expt.(l + !j)
           <> Int64.bits_of_float b.term_expt.(l' + !j)
      then same := false;
      incr j
    done;
    !same

  (* Pool cell of the monomial equal to segment [l, h), or the free
     cell where it goes. *)
  let pool_probe b l h =
    let mask = Array.length b.pool - 1 in
    let i = ref (seg_hash b l h land mask) in
    while b.pool.(!i) <> 0 && not (same_seg b l h (b.pool.(!i) - 1)) do
      i := (!i + 1) land mask
    done;
    !i

  (* Make the segment ending at [h], just pushed, the next monomial, in
     free pool cell [i]. *)
  let add_mono b i h =
    b.pool.(i) <- b.nmono + 1;
    if b.nmono + 2 > Array.length b.mono then b.mono <- grow b.mono 0;
    b.mono.(b.nmono + 1) <- h;
    b.nmono <- b.nmono + 1;
    if 2 * b.nmono >= Array.length b.pool then begin
      b.pool <- Array.make (2 * Array.length b.pool) 0;
      for m = 0 to b.nmono - 1 do
        b.pool.(pool_probe b b.mono.(m) b.mono.(m + 1)) <- m + 1
      done
    end

  (* Exponent entries are stored in reverse, and sum children in
     reverse construction order.  The sweeps accumulate in segment
     order and float addition is not associative, so this layout is
     part of every tape's bit-level results. *)
  let term b coeff expts =
    if Array.length expts = 0 then const b coeff
    else begin
      let l = b.nentries in
      for j = Array.length expts - 1 downto 0 do
        let i, a = expts.(j) in
        if i > b.max_var then b.max_var <- i;
        push_entry b i a
      done;
      let h = b.nentries in
      let i = pool_probe b l h in
      if b.pool.(i) = 0 then begin
        add_mono b i h;
        slot b op_term l h coeff
      end
      else begin
        let m = b.pool.(i) - 1 in
        b.nentries <- l;
        slot b op_term b.mono.(m) b.mono.(m + 1) coeff
      end
    end

  let sum b bias kids =
    match kids with
    | [ k ] when bias = 0.0 -> k
    | _ ->
        let l = b.nchildren in
        List.iter (push_child b) kids;
        slot b op_sum l b.nchildren bias

  let max b f kids =
    let l = b.nchildren in
    List.iter (push_child b) kids;
    slot b op_max l b.nchildren f

  let scale b f s = slot b op_scale s 0 f

  let finish b ~root : tape =
    {
      n_vars = b.max_var + 1;
      root;
      op = Array.sub b.op 0 b.nslots;
      lo = Array.sub b.lo 0 b.nslots;
      hi = Array.sub b.hi 0 b.nslots;
      c = Array.sub b.c 0 b.nslots;
      term_var = Array.sub b.term_var 0 b.nentries;
      term_expt = Array.sub b.term_expt 0 b.nentries;
      mono = Array.sub b.mono 0 (b.nmono + 1);
      child = Array.sub b.child 0 b.nchildren;
    }
end

(* Open-addressing memo keyed by {!Expr.id} for [compile].  The
   allocation objectives of deep MDGs reach hundreds of thousands of
   DAG nodes and each node/edge visit is a memo probe, so stdlib
   [Hashtbl]'s boxed bucket chains dominate compile time; flat parallel
   arrays with linear probing keep every probe inside a few cache
   lines.  One entry carries both memoised facts about a node — its
   constant-folded value (if any) and its emitted slot (if any). *)
module Memo = struct
  type t = {
    mutable key : int array;  (* Expr ids; 0 = empty (ids start at 1) *)
    mutable cstate : Bytes.t;  (* '\000' unknown, '\001' const, '\002' not *)
    mutable cval : float array;  (* constant value when cstate = '\001' *)
    mutable slot : int array;  (* emitted slot, -1 = none yet *)
    mutable uses : int array;  (* incoming DAG edges (parent references) *)
    mutable seen : Bytes.t;  (* visited by the use-count walk *)
    mutable mask : int;
    mutable count : int;
  }

  (* Starts small and doubles in [idx]: a small DAG should not pay for
     a table sized for a deep MDG. *)
  let create () =
    let cap = 1024 in
    { key = Array.make cap 0; cstate = Bytes.make cap '\000';
      cval = Array.make cap 0.0; slot = Array.make cap (-1);
      uses = Array.make cap 0; seen = Bytes.make cap '\000';
      mask = cap - 1; count = 0 }

  (* Multiplicative scramble: sequential ids would otherwise cluster. *)
  let hash k = (k * 0x9E3779B1) land max_int

  let probe t k =
    let mask = t.mask and key = t.key in
    let i = ref (hash k land mask) in
    while
      let k' = Array.unsafe_get key !i in
      k' <> 0 && k' <> k
    do
      i := (!i + 1) land mask
    done;
    !i

  let grow t =
    let old_key = t.key and old_cstate = t.cstate in
    let old_cval = t.cval and old_slot = t.slot in
    let old_uses = t.uses and old_seen = t.seen in
    let cap = 2 * (t.mask + 1) in
    t.key <- Array.make cap 0;
    t.cstate <- Bytes.make cap '\000';
    t.cval <- Array.make cap 0.0;
    t.slot <- Array.make cap (-1);
    t.uses <- Array.make cap 0;
    t.seen <- Bytes.make cap '\000';
    t.mask <- cap - 1;
    Array.iteri
      (fun i k ->
        if k <> 0 then begin
          let j = probe t k in
          t.key.(j) <- k;
          Bytes.set t.cstate j (Bytes.get old_cstate i);
          t.cval.(j) <- old_cval.(i);
          t.slot.(j) <- old_slot.(i);
          t.uses.(j) <- old_uses.(i);
          Bytes.set t.seen j (Bytes.get old_seen i)
        end)
      old_key

  (* Index of [k]'s entry, inserting an empty one if absent.  The
     returned index is invalidated by any later insertion (the table
     may grow), so callers re-probe after recursing. *)
  let idx t k =
    if 2 * t.count >= t.mask + 1 then grow t;
    let i = probe t k in
    if t.key.(i) = 0 then begin
      t.key.(i) <- k;
      t.count <- t.count + 1
    end;
    i
end

let compile root_expr =
  let memo = Memo.create () in
  (* Use counts (incoming DAG edges per node), for the sum-flattening
     below: a sum referenced exactly once can be spliced into its
     (sum) parent instead of costing a slot and a child edge of its
     own.  The builders upstream produce long chains of single-use
     binary sums (critical-path recurrences accumulate [add] by
     [add]), so this shrinks deep-MDG tapes considerably. *)
  let rec count_uses e =
    let i = Memo.idx memo (Expr.id e) in
    if Bytes.get memo.Memo.seen i = '\000' then begin
      Bytes.set memo.Memo.seen i '\001';
      let bump e' =
        let j = Memo.idx memo (Expr.id e') in
        memo.Memo.uses.(j) <- memo.Memo.uses.(j) + 1;
        count_uses e'
      in
      match Expr.view e with
      | Expr.V_const _ | Expr.V_term _ -> ()
      | Expr.V_scale (_, e') -> bump e'
      | Expr.V_sum es | Expr.V_max es -> Array.iter bump es
    end
  in
  count_uses root_expr;
  let uses_of e = memo.Memo.uses.(Memo.idx memo (Expr.id e)) in
  (* [const_val e] is [Some v] when the subtree at [e] contains no
     variables, memoised per DAG node. *)
  let rec const_val e =
    let i = Memo.idx memo (Expr.id e) in
    match Bytes.get memo.Memo.cstate i with
    | '\001' -> Some memo.Memo.cval.(i)
    | '\002' -> None
    | _ ->
        let r =
          match Expr.view e with
          | Expr.V_const c -> Some c
          | Expr.V_term { coeff; expts } ->
              (* exp of an empty sum: the constant [coeff]. *)
              if Array.length expts = 0 then Some coeff else None
          | Expr.V_scale (f, e') ->
              Option.map (fun v -> f *. v) (const_val e')
          | Expr.V_sum es ->
              Array.fold_left
                (fun acc e' ->
                  match (acc, const_val e') with
                  | Some a, Some v -> Some (a +. v)
                  | _ -> None)
                (Some 0.0) es
          | Expr.V_max _ ->
              (* Never foldable: the log-sum-exp smoothing makes even a
                 max of constants depend on the evaluation-time [mu]. *)
              None
        in
        let i = Memo.idx memo (Expr.id e) in
        (match r with
        | Some v ->
            Bytes.set memo.Memo.cstate i '\001';
            memo.Memo.cval.(i) <- v
        | None -> Bytes.set memo.Memo.cstate i '\002');
        r
  in
  let b = Builder.create () in
  (* Every term with a variable survives constant folding (a subtree
     containing one is never constant), so the builder's highest
     variable index equals {!Expr.max_var} without a second full DAG
     traversal.  A variable-free posynomial term is the constant
     [coeff] (exp of an empty sum), so it joins the constant pool
     instead of costing a term slot. *)
  let rec emit e =
    let i = Memo.idx memo (Expr.id e) in
    let s = memo.Memo.slot.(i) in
    if s >= 0 then s
    else begin
      let slot =
        match const_val e with
        | Some v -> Builder.const b v
        | None -> (
            match Expr.view e with
            | Expr.V_const c -> Builder.const b c
            | Expr.V_term { coeff; expts } -> Builder.term b coeff expts
            | Expr.V_scale (f, e') ->
                (* Compose chains of single-use scales into one factor
                   and fold that factor into a single-use term's
                   coefficient: multiplication reassociates, so only
                   rounding (and a slot per folded link) changes. *)
                let f = ref f and ec = ref e' in
                let rec chase () =
                  if uses_of !ec = 1 then
                    match Expr.view !ec with
                    | Expr.V_scale (g, e'') ->
                        f := !f *. g;
                        ec := e'';
                        chase ()
                    | _ -> ()
                in
                chase ();
                (match Expr.view !ec with
                | Expr.V_term { coeff; expts } when uses_of !ec = 1 ->
                    Builder.term b (!f *. coeff) expts
                | Expr.V_max es when uses_of !ec = 1 ->
                    (* Fuse the factor into the max slot: the sweeps
                       multiply the slot's output (and its adjoints) by
                       the factor, in the same float operations the
                       separate scale slot performed. *)
                    Builder.max b !f (emit_all es)
                | _ ->
                    let s = emit !ec in
                    Builder.scale b !f s)
            | Expr.V_sum es ->
                (* Fold constant summands into the bias.  A non-const
                   summand that is itself a sum with no other parent is
                   spliced in place of a child reference — addition
                   reassociates, so only float rounding (and the tape
                   size) changes. *)
                let bias = ref 0.0 in
                let kids = ref [] in
                let rec add_child e' =
                  match const_val e' with
                  | Some v -> bias := !bias +. v
                  | None -> (
                      match Expr.view e' with
                      | Expr.V_sum es' when uses_of e' = 1 ->
                          Array.iter add_child es'
                      | _ -> kids := emit e' :: !kids)
                in
                Array.iter add_child es;
                Builder.sum b !bias !kids
            | Expr.V_max es ->
                (* Constant branches stay as slots so the subgradient
                   tie-break (first maximising branch, in order) and
                   the softmax weighting match {!Expr} exactly. *)
                Builder.max b 1.0 (emit_all es))
      in
      let i = Memo.idx memo (Expr.id e) in
      memo.Memo.slot.(i) <- slot;
      slot
    end
  and emit_all es = Array.to_list (Array.map emit es) in
  Builder.finish b ~root:(emit root_expr)

let equal a b =
  let bits = Int64.bits_of_float in
  let same_bits x y =
    Array.length x = Array.length y
    && Array.for_all2 (fun u v -> Int64.equal (bits u) (bits v)) x y
  in
  a.n_vars = b.n_vars && a.root = b.root && a.op = b.op && a.lo = b.lo
  && a.hi = b.hi && a.child = b.child && a.term_var = b.term_var
  && a.mono = b.mono
  && same_bits a.c b.c
  && same_bits a.term_expt b.term_expt

let n_vars t = t.n_vars

let num_slots t = Array.length t.op

let num_term_entries t = Array.length t.term_var

let num_monomials t = Array.length t.mono - 1

let num_children t = Array.length t.child

let create_workspace t =
  let n = Int.max 1 (num_slots t) in
  {
    v = Array.make n 0.0;
    adj = Array.make n 0.0;
    w = Array.make (Int.max 1 (num_children t)) 0.0;
    s = Array.make 1 0.0;
    mv = Array.make (Int.max 1 (num_term_entries t)) 0.0;
    vd = Array.make n 0.0;
    adjd = Array.make n 0.0;
    wd = Array.make (Int.max 1 (num_children t)) 0.0;
    sel = Array.make n (-1);
    mask_mu = 0.0;
    mask_valid = false;
    mask_free = Array.make (Int.max 1 t.n_vars) false;
    n_active = 0;
    active = Array.make n 0;
    n_union = 0;
    union = Array.make n 0;
    flags = Bytes.make n '\000';
  }

let check_dim name t x =
  if Vec.dim x < t.n_vars then
    invalid_arg
      (Printf.sprintf "Tape.%s: tape uses variable %d but x has dim %d" name
         (t.n_vars - 1) (Vec.dim x))

(* Unsafe indexing for the O(|tape|) inner loops.  Every index comes
   from the tape's own, internally consistent arrays ([child] and the
   segment bounds point inside the tape; [term_var] is below [n_vars],
   which [check_dim] verifies against the caller's vectors), and the
   bounds checks are a measurable fraction of sweep time on the
   ~500k-slot tapes of deep MDGs.  Float expressions below keep the
   exact shape of the checked originals, so results are bit-identical. *)
external ( .%() ) : 'a array -> int -> 'a = "%array_unsafe_get"

external ( .%()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

(* First maximising branch of max slot [p] for the reverse sweeps'
   subgradient tie-break, replayed from [sel] (the strict-[>] forward
   scan records the earliest of any tie, the branch {!Expr.eval_grad}
   picks).  When the max is empty or every branch is [neg_infinity]
   [sel] is -1: settle on [lo] if the slot's value is [neg_infinity]
   (matching a downward [>=] rescan), and on nothing for NaN. *)
let rev_sel t ws p =
  if ws.sel.(p) >= 0 then ws.sel.(p)
  else if ws.v.(p) = neg_infinity && t.hi.(p) > t.lo.(p) then t.lo.(p)
  else min_int

(* The pre-pass of every forward sweep: [ws.mv.(l)] <- exp (Σ e·x)
   over each distinct monomial's segment [l, h), summed in stored
   order, so a term slot's value is [c.(k) *. mv.(lo.(k))] — the
   float operations the slot performed on its own segment. *)
let monomial_exps t ws x =
  let mv = ws.mv and mono = t.mono in
  let tv = t.term_var and te = t.term_expt in
  for m = 0 to Array.length mono - 2 do
    let acc = ref 0.0 in
    for j = mono.%(m) to mono.%(m + 1) - 1 do
      acc := !acc +. (te.%(j) *. x.%(tv.%(j)))
    done;
    mv.%(mono.%(m)) <- exp !acc
  done

(* A branch's term exp ((v_j − m)/mu) of the log-sum-exp at shift [m],
   skipping the calls whose result is exact: the top branch gives
   exp 0 = 1, and exp underflows to +0 below about −745.13.  NaN fails
   both tests and goes through [exp], so it propagates as before. *)
let[@inline] lse_term vj m mu =
  if vj = m then 1.0
  else
    let z = (vj -. m) /. mu in
    if z < -746.0 then 0.0 else exp z

(* log s, skipping log 1 = 0: s is exactly 1 whenever every other
   branch lies more than about 37·mu below the top, as most do at
   tight temperatures. *)
let[@inline] lse_log s = if s = 1.0 then 0.0 else log s

(* Forward sweep.  With [weights = true] (gradient path, mu > 0) the
   normalised softmax weights of every max are stored in [ws.w] for
   the reverse sweep.  Allocation-free: the accumulators live in the
   workspace's flat float arrays or in unboxed local floats. *)
let forward ~mu ~weights t ws x =
  let v = ws.v and w = ws.w and s = ws.s and sel = ws.sel in
  let mv = ws.mv in
  let opa = t.op and loa = t.lo and hia = t.hi and ca = t.c in
  let ch = t.child in
  let n = Array.length opa in
  monomial_exps t ws x;
  for k = 0 to n - 1 do
    let o = opa.%(k) in
    if o = op_term then v.%(k) <- ca.%(k) *. mv.%(loa.%(k))
    else if o = op_sum then begin
      v.%(k) <- ca.%(k);
      for j = loa.%(k) to hia.%(k) - 1 do
        v.%(k) <- v.%(k) +. v.%(ch.%(j))
      done
    end
    else if o = op_max then begin
      v.%(k) <- neg_infinity;
      (* Record the first maximising branch: the reverse sweeps and
         the masked-HVP path replay the subgradient tie-break from
         [sel] instead of rescanning.  (Workspace cells, not refs,
         keep the sweep allocation-free without flambda.) *)
      sel.%(k) <- -1;
      for j = loa.%(k) to hia.%(k) - 1 do
        if v.%(ch.%(j)) > v.%(k) then begin
          v.%(k) <- v.%(ch.%(j));
          sel.%(k) <- j
        end
      done;
      if mu > 0.0 && Float.is_finite v.%(k) then begin
        (* v.(k) currently holds the shift m; s.(0) accumulates the
           log-sum-exp normaliser. *)
        s.%(0) <- 0.0;
        for j = loa.%(k) to hia.%(k) - 1 do
          let e = lse_term v.%(ch.%(j)) v.%(k) mu in
          if weights then w.%(j) <- e;
          s.%(0) <- s.%(0) +. e
        done;
        if weights then
          for j = loa.%(k) to hia.%(k) - 1 do
            w.%(j) <- w.%(j) /. s.%(0)
          done;
        v.%(k) <- v.%(k) +. (mu *. lse_log s.%(0))
      end;
      (* Fused scale factor (1.0 for a plain max: bit-identical). *)
      v.%(k) <- ca.%(k) *. v.%(k)
    end
    else if o = op_scale then v.%(k) <- ca.%(k) *. v.%(loa.%(k))
    else (* op_const *) v.%(k) <- ca.%(k)
  done;
  v.(t.root)

let eval ?(mu = 0.0) t ws x =
  check_dim "eval" t x;
  forward ~mu ~weights:false t ws x

(* Branch values of a root max, read off the last forward sweep.  The
   objective Φ = max(A_p, C_p) already computes both components on the
   way to the root, so callers that report them (e.g.
   {!Core.Allocation}) can read the child slots instead of re-walking
   the expression DAG — on a 10k-node MDG those two DAG evals cost
   more than the entire tape sweep. *)
let root_branches t ws =
  if t.op.(t.root) <> op_max then [||]
  else begin
    let lo = t.lo.(t.root) and hi = t.hi.(t.root) in
    let f = t.c.(t.root) in
    Array.init (hi - lo) (fun j -> f *. ws.v.(t.child.(lo + j)))
  end

(* Forward sweep carrying first-order tangents along direction [dx]:
   after the sweep, [ws.vd.(k)] is the directional derivative of slot
   [k] along [dx], and for smoothed maxima [ws.wd.(j)] holds the
   tangent of the softmax weight [ws.w.(j)].  At [mu <= 0] the max is
   piecewise linear: the tangent follows the first maximising branch
   (construction order), the same branch the subgradient picks, so the
   Gauss–Newton-style reverse sweep below yields the Hessian of the
   active piece.  Allocation-free, like {!forward}. *)
let forward_tangent ~mu t ws x dx =
  let v = ws.v and w = ws.w and s = ws.s and mv = ws.mv in
  let vd = ws.vd and wd = ws.wd and sel = ws.sel in
  let opa = t.op and loa = t.lo and hia = t.hi and ca = t.c in
  let tv = t.term_var and te = t.term_expt and ch = t.child in
  let n = Array.length opa in
  monomial_exps t ws x;
  for k = 0 to n - 1 do
    let o = opa.%(k) in
    if o = op_term then begin
      v.%(k) <- ca.%(k) *. mv.%(loa.%(k));
      vd.%(k) <- 0.0;
      for j = loa.%(k) to hia.%(k) - 1 do
        vd.%(k) <- vd.%(k) +. (te.%(j) *. dx.%(tv.%(j)))
      done;
      (* d(c·e^s) = c·e^s·ds *)
      vd.%(k) <- v.%(k) *. vd.%(k)
    end
    else if o = op_sum then begin
      v.%(k) <- ca.%(k);
      vd.%(k) <- 0.0;
      for j = loa.%(k) to hia.%(k) - 1 do
        v.%(k) <- v.%(k) +. v.%(ch.%(j));
        vd.%(k) <- vd.%(k) +. vd.%(ch.%(j))
      done
    end
    else if o = op_max then begin
      v.%(k) <- neg_infinity;
      (* The strict [>] keeps the earliest of any tie, matching the
         subgradient tie-break. *)
      sel.%(k) <- -1;
      for j = loa.%(k) to hia.%(k) - 1 do
        if v.%(ch.%(j)) > v.%(k) then begin
          v.%(k) <- v.%(ch.%(j));
          sel.%(k) <- j
        end
      done;
      vd.%(k) <- (if sel.%(k) >= 0 then vd.%(ch.%(sel.%(k))) else 0.0);
      if mu > 0.0 && Float.is_finite v.%(k) then begin
        let m = v.%(k) in
        s.%(0) <- 0.0;
        for j = loa.%(k) to hia.%(k) - 1 do
          let e = lse_term v.%(ch.%(j)) m mu in
          w.%(j) <- e;
          s.%(0) <- s.%(0) +. e
        done;
        vd.%(k) <- 0.0;
        for j = loa.%(k) to hia.%(k) - 1 do
          w.%(j) <- w.%(j) /. s.%(0);
          vd.%(k) <- vd.%(k) +. (w.%(j) *. vd.%(ch.%(j)))
        done;
        (* dw_j = w_j (dv_j - dv_k)/mu, with dv_k = sum_l w_l dv_l
           (both of the unscaled log-sum-exp: the weights are its
           derivatives; the fused factor enters via the adjoints). *)
        for j = loa.%(k) to hia.%(k) - 1 do
          wd.%(j) <- w.%(j) *. (vd.%(ch.%(j)) -. vd.%(k)) /. mu
        done;
        v.%(k) <- m +. (mu *. lse_log s.%(0))
      end;
      v.%(k) <- ca.%(k) *. v.%(k);
      vd.%(k) <- ca.%(k) *. vd.%(k)
    end
    else if o = op_scale then begin
      v.%(k) <- ca.%(k) *. v.%(loa.%(k));
      vd.%(k) <- ca.%(k) *. vd.%(loa.%(k))
    end
    else begin
      (* op_const *)
      v.%(k) <- ca.%(k);
      vd.%(k) <- 0.0
    end
  done;
  v.(t.root)

let eval_hvp ?(mu = 0.0) t ws ~x ~dx ~grad ~hvp =
  check_dim "eval_hvp" t x;
  if Vec.dim dx <> Vec.dim x then
    invalid_arg "Tape.eval_hvp: dx/x dimension mismatch";
  if Vec.dim grad <> Vec.dim x || Vec.dim hvp <> Vec.dim x then
    invalid_arg "Tape.eval_hvp: grad/hvp/x dimension mismatch";
  (* The dense tangent sweeps write tangents outside any mask's sets,
     breaking the zero-tangent invariant a cached mask relies on. *)
  ws.mask_valid <- false;
  let value = forward_tangent ~mu t ws x dx in
  let v = ws.v and adj = ws.adj and w = ws.w in
  let vd = ws.vd and adjd = ws.adjd and wd = ws.wd in
  let opa = t.op and loa = t.lo and hia = t.hi and ca = t.c in
  let tv = t.term_var and te = t.term_expt and ch = t.child in
  let n = Array.length opa in
  Array.fill adj 0 n 0.0;
  Array.fill adjd 0 n 0.0;
  Array.fill grad 0 (Vec.dim grad) 0.0;
  Array.fill hvp 0 (Vec.dim hvp) 0.0;
  adj.(t.root) <- 1.0;
  for k = n - 1 downto 0 do
    let a = adj.%(k) in
    let ad = adjd.%(k) in
    if a <> 0.0 || ad <> 0.0 then begin
      let o = opa.%(k) in
      if o = op_term then
        for j = loa.%(k) to hia.%(k) - 1 do
          let i = tv.%(j) in
          let e = te.%(j) in
          grad.%(i) <- grad.%(i) +. (a *. e *. v.%(k));
          (* d(a·e·v) = e·(da·v + a·dv) *)
          hvp.%(i) <- hvp.%(i) +. (e *. ((ad *. v.%(k)) +. (a *. vd.%(k))))
        done
      else if o = op_sum then
        for j = loa.%(k) to hia.%(k) - 1 do
          let cj = ch.%(j) in
          adj.%(cj) <- adj.%(cj) +. a;
          adjd.%(cj) <- adjd.%(cj) +. ad
        done
      else if o = op_max then begin
        (* The fused scale factor multiplies both adjoints, exactly as
           the separate scale slot did before propagation. *)
        let ac = a *. ca.%(k) in
        let adc = ad *. ca.%(k) in
        if mu > 0.0 && Float.is_finite v.%(k) then
          for j = loa.%(k) to hia.%(k) - 1 do
            let cj = ch.%(j) in
            adj.%(cj) <- adj.%(cj) +. (ac *. w.%(j));
            (* d(a·w_j) = da·w_j + a·dw_j — the a·dw_j term is where the
               curvature of the smoothed max enters the Hessian. *)
            adjd.%(cj) <- adjd.%(cj) +. (adc *. w.%(j)) +. (ac *. wd.%(j))
          done
        else begin
          (* First maximising branch, replayed from [sel]; the branch
             indicator is locally constant, so its tangent is zero. *)
          let j = rev_sel t ws k in
          if j >= loa.%(k) then begin
            let cj = ch.%(j) in
            adj.%(cj) <- adj.%(cj) +. ac;
            adjd.%(cj) <- adjd.%(cj) +. adc
          end
        end
      end
      else if o = op_scale then begin
        let cj = loa.%(k) in
        adj.%(cj) <- adj.%(cj) +. (a *. ca.%(k));
        adjd.%(cj) <- adjd.%(cj) +. (ad *. ca.%(k))
      end
      (* op_const: adjoint discarded *)
    end
  done;
  value

let eval_grad ?(mu = 0.0) t ws ~x ~grad =
  check_dim "eval_grad" t x;
  if Vec.dim grad <> Vec.dim x then
    invalid_arg "Tape.eval_grad: grad/x dimension mismatch";
  let value = forward ~mu ~weights:true t ws x in
  let v = ws.v and adj = ws.adj and w = ws.w in
  let opa = t.op and loa = t.lo and hia = t.hi and ca = t.c in
  let tv = t.term_var and te = t.term_expt and ch = t.child in
  let n = Array.length opa in
  Array.fill adj 0 n 0.0;
  Array.fill grad 0 (Vec.dim grad) 0.0;
  adj.(t.root) <- 1.0;
  for k = n - 1 downto 0 do
    let a = adj.%(k) in
    if a <> 0.0 then begin
      let o = opa.%(k) in
      if o = op_term then
        for j = loa.%(k) to hia.%(k) - 1 do
          let i = tv.%(j) in
          grad.%(i) <- grad.%(i) +. (a *. te.%(j) *. v.%(k))
        done
      else if o = op_sum then
        for j = loa.%(k) to hia.%(k) - 1 do
          let cj = ch.%(j) in
          adj.%(cj) <- adj.%(cj) +. a
        done
      else if o = op_max then begin
        let ac = a *. ca.%(k) in
        if mu > 0.0 && Float.is_finite v.%(k) then
          for j = loa.%(k) to hia.%(k) - 1 do
            let cj = ch.%(j) in
            adj.%(cj) <- adj.%(cj) +. (ac *. w.%(j))
          done
        else begin
          (* Subgradient: the first maximising branch in construction
             order, exactly as {!Expr.eval_grad} picks it, replayed
             from the forward scan's [sel]. *)
          let j = rev_sel t ws k in
          if j >= loa.%(k) then begin
            let cj = ch.%(j) in
            adj.%(cj) <- adj.%(cj) +. ac
          end
        end
      end
      else if o = op_scale then begin
        let cj = loa.%(k) in
        adj.%(cj) <- adj.%(cj) +. (a *. ca.%(k))
      end
      (* op_const: adjoint discarded *)
    end
  done;
  value

(* ------------------------------------------------------------------ *)
(* Masked HVPs on the active face                                      *)
(* ------------------------------------------------------------------ *)

(* Flag bits in [ws.flags]. *)
let f_active = '\001' (* value tangent can be nonzero *)

let f_adjt = '\002' (* adjoint tangent can be nonzero *)

let flag_has b f = Char.code b land Char.code f <> 0

let flag_add b f = Char.chr (Char.code b lor Char.code f)

let hvp_mask ?(mu = 0.0) t ws ~free =
  if Array.length free < t.n_vars then
    invalid_arg "Tape.hvp_mask: free/x dimension mismatch";
  (* The index sets depend only on the free set, the sign of [mu] and
     tape structure (a max value is non-finite exactly when its child
     segment is empty — a structural fact), not on the current point,
     so a rebuild for the same [free] and [mu] is the identity: skip
     it.  The zero-tangent invariant also still holds, because the only
     sweeps that write tangents between masks are the masked ones
     themselves, which stay inside the sets ({!eval_hvp} writes them
     everywhere and invalidates).  This makes the per-outer-iteration
     re-mask of a Newton stage with an unchanged active face free. *)
  let same_free () =
    let same = ref true in
    let i = ref 0 in
    while !same && !i < t.n_vars do
      if Array.unsafe_get free !i <> Array.unsafe_get ws.mask_free !i then
        same := false;
      incr i
    done;
    !same
  in
  if ws.mask_valid && ws.mask_mu = mu && same_free () then ()
  else begin
  let n = Array.length t.op in
  let flags = ws.flags in
  Bytes.fill flags 0 n '\000';
  ws.mask_mu <- mu;
  (* Upward closure: slots whose value depends on a free variable.
     Only these can carry a nonzero value tangent. *)
  let na = ref 0 in
  for k = 0 to n - 1 do
    let o = t.op.(k) in
    let act =
      if o = op_term then begin
        let any = ref false in
        let j = ref t.lo.(k) in
        while (not !any) && !j < t.hi.(k) do
          if free.(t.term_var.(!j)) then any := true;
          incr j
        done;
        !any
      end
      else if o = op_sum || o = op_max then begin
        let any = ref false in
        let j = ref t.lo.(k) in
        while (not !any) && !j < t.hi.(k) do
          if flag_has (Bytes.get flags t.child.(!j)) f_active then any := true;
          incr j
        done;
        !any
      end
      else if o = op_scale then flag_has (Bytes.get flags t.lo.(k)) f_active
      else false
    in
    if act then begin
      Bytes.set flags k (flag_add (Bytes.get flags k) f_active);
      ws.active.(!na) <- k;
      incr na
    end
  done;
  ws.n_active <- !na;
  (* Downward closure of adjoint-tangent flow: smoothed maxima that
     depend on a free variable inject curvature into ALL their
     branches (the softmax weights shift together), and from there the
     tangent adjoint propagates through children like the adjoint.  At
     mu <= 0 every max differentiates through one locally constant
     branch, so nothing seeds an adjoint tangent and the closure is
     empty — the masked HVP is the Hessian of the active piece swept
     over the active slots alone. *)
  if mu > 0.0 then
    for k = n - 1 downto 0 do
      let b = Bytes.get flags k in
      let o = t.op.(k) in
      if o = op_max then begin
        if
          (flag_has b f_active || flag_has b f_adjt)
          && Float.is_finite ws.v.(k)
        then
          for j = t.lo.(k) to t.hi.(k) - 1 do
            let ch = t.child.(j) in
            Bytes.set flags ch (flag_add (Bytes.get flags ch) f_adjt)
          done
        else if flag_has b f_adjt then begin
          (* Kink even at mu > 0 (infinite value): selected branch. *)
          let j = rev_sel t ws k in
          if j >= t.lo.(k) then begin
            let ch = t.child.(j) in
            Bytes.set flags ch (flag_add (Bytes.get flags ch) f_adjt)
          end
        end
      end
      else if flag_has b f_adjt then begin
        if o = op_sum then
          for j = t.lo.(k) to t.hi.(k) - 1 do
            let ch = t.child.(j) in
            Bytes.set flags ch (flag_add (Bytes.get flags ch) f_adjt)
          done
        else if o = op_scale then begin
          let ch = t.lo.(k) in
          Bytes.set flags ch (flag_add (Bytes.get flags ch) f_adjt)
        end
      end
    done;
  let nu = ref 0 in
  for k = 0 to n - 1 do
    if Bytes.get flags k <> '\000' then begin
      ws.union.(!nu) <- k;
      incr nu
    end
  done;
  ws.n_union <- !nu;
  (* Stale tangents from earlier sweeps must read as zero wherever the
     masked sweeps skip writing. *)
  Array.fill ws.vd 0 n 0.0;
  Array.fill ws.adjd 0 n 0.0;
  Array.fill ws.wd 0 (Array.length ws.wd) 0.0;
  Array.blit free 0 ws.mask_free 0 t.n_vars;
  ws.mask_valid <- true
  end

let hvp_masked t ws ~x ~dx ~hvp =
  check_dim "hvp_masked" t x;
  if Vec.dim dx <> Vec.dim x then
    invalid_arg "Tape.hvp_masked: dx/x dimension mismatch";
  if Vec.dim hvp <> Vec.dim x then
    invalid_arg "Tape.hvp_masked: hvp/x dimension mismatch";
  let mu = ws.mask_mu in
  let v = ws.v and adj = ws.adj and w = ws.w in
  let vd = ws.vd and adjd = ws.adjd and wd = ws.wd in
  let opa = t.op and loa = t.lo and hia = t.hi and ca = t.c in
  let tv = t.term_var and te = t.term_expt and ch = t.child in
  let active = ws.active and union = ws.union and sel = ws.sel in
  (* Tangent forward over the active slots only; [v], [w] and [sel]
     are reused from the preceding {!eval_grad} at the same point. *)
  for ai = 0 to ws.n_active - 1 do
    let k = active.%(ai) in
    let o = opa.%(k) in
    if o = op_term then begin
      let accd = ref 0.0 in
      for j = loa.%(k) to hia.%(k) - 1 do
        accd := !accd +. (te.%(j) *. dx.%(tv.%(j)))
      done;
      vd.%(k) <- v.%(k) *. !accd
    end
    else if o = op_sum then begin
      let accd = ref 0.0 in
      for j = loa.%(k) to hia.%(k) - 1 do
        accd := !accd +. vd.%(ch.%(j))
      done;
      vd.%(k) <- !accd
    end
    else if o = op_max then begin
      if mu > 0.0 && Float.is_finite v.%(k) then begin
        let d = ref 0.0 in
        for j = loa.%(k) to hia.%(k) - 1 do
          d := !d +. (w.%(j) *. vd.%(ch.%(j)))
        done;
        (* [wd] uses the unscaled log-sum-exp tangent [d]; the fused
           factor scales the slot's own outgoing tangent. *)
        for j = loa.%(k) to hia.%(k) - 1 do
          wd.%(j) <- w.%(j) *. (vd.%(ch.%(j)) -. !d) /. mu
        done;
        vd.%(k) <- ca.%(k) *. !d
      end
      else
        vd.%(k) <-
          ca.%(k) *. (if sel.%(k) >= 0 then vd.%(ch.%(sel.%(k))) else 0.0)
    end
    else if o = op_scale then vd.%(k) <- ca.%(k) *. vd.%(loa.%(k))
    else vd.%(k) <- 0.0
  done;
  (* Reverse scatter over the union, descending (the union list is
     ascending): the adjoint [adj] is read-only here, only the adjoint
     tangents accumulate.  Same expressions and guards as
     {!eval_hvp}. *)
  for ui = ws.n_union - 1 downto 0 do
    adjd.%(union.%(ui)) <- 0.0
  done;
  Array.fill hvp 0 (Vec.dim hvp) 0.0;
  for ui = ws.n_union - 1 downto 0 do
    let k = union.%(ui) in
    let a = adj.%(k) in
    let ad = adjd.%(k) in
    if a <> 0.0 || ad <> 0.0 then begin
      let o = opa.%(k) in
      if o = op_term then
        for j = loa.%(k) to hia.%(k) - 1 do
          let i = tv.%(j) in
          let e = te.%(j) in
          hvp.%(i) <- hvp.%(i) +. (e *. ((ad *. v.%(k)) +. (a *. vd.%(k))))
        done
      else if o = op_sum then
        for j = loa.%(k) to hia.%(k) - 1 do
          let cj = ch.%(j) in
          adjd.%(cj) <- adjd.%(cj) +. ad
        done
      else if o = op_max then begin
        let ac = a *. ca.%(k) in
        let adc = ad *. ca.%(k) in
        if mu > 0.0 && Float.is_finite v.%(k) then
          for j = loa.%(k) to hia.%(k) - 1 do
            let cj = ch.%(j) in
            adjd.%(cj) <- adjd.%(cj) +. (adc *. w.%(j)) +. (ac *. wd.%(j))
          done
        else begin
          let j = rev_sel t ws k in
          if j >= loa.%(k) then begin
            let cj = ch.%(j) in
            adjd.%(cj) <- adjd.%(cj) +. adc
          end
        end
      end
      else if o = op_scale then begin
        let cj = loa.%(k) in
        adjd.%(cj) <- adjd.%(cj) +. (ad *. ca.%(k))
      end
      (* op_const: nothing *)
    end
  done

(* ------------------------------------------------------------------ *)
(* Gauss–Newton diagonal                                               *)
(* ------------------------------------------------------------------ *)

(* Diagonal of the Gauss–Newton part of the Hessian at the point of
   the last {!eval_grad}: each posynomial term contributes
   adj_k · v_k · e_i² to coordinate i, which is the exact diagonal of
   sum_k adj_k ∇²v_k.  The smoothed-max coupling curvature is dropped,
   so the result {e underestimates} the true diagonal on coordinates
   whose curvature lives in a max — consumers must floor it
   ({!Precond.jacobi_clamp}) or the Jacobi inverse over-amplifies
   exactly those coordinates. *)
let hess_diag t ws ~diag =
  check_dim "hess_diag" t diag;
  Array.fill diag 0 (Vec.dim diag) 0.0;
  let opa = t.op and loa = t.lo and hia = t.hi in
  let tv = t.term_var and te = t.term_expt in
  let v = ws.v and adj = ws.adj in
  let n = Array.length opa in
  for k = 0 to n - 1 do
    if opa.%(k) = op_term then begin
      let a = adj.%(k) in
      if a <> 0.0 then begin
        let av = a *. v.%(k) in
        for j = loa.%(k) to hia.%(k) - 1 do
          let e = te.%(j) in
          let i = tv.%(j) in
          diag.%(i) <- diag.%(i) +. (av *. e *. e)
        done
      end
    end
  done
