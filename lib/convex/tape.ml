module Vec = Numeric.Vec

(* Opcodes.  Each slot k reads:
     op_const : value c.(k)
     op_term  : coeff c.(k), exponent segment [lo.(k), hi.(k)) of
                term_var/term_expt (a distinct monomial's segment,
                shared by every term slot with the same exponents)
     op_sum   : constant bias c.(k), child segment [lo.(k), hi.(k)) of child
     op_max   : child segment [lo.(k), hi.(k)) of child
     op_scale : factor c.(k), single child slot lo.(k)
   Slots come in two blocks: the term slots [0, nterm), then every other
   slot.  Each block is in construction order, and a term has no
   children, so the slots are in topological (children-first) order;
   the root is [root]. *)
let op_const = 0

let op_term = 1

let op_sum = 2

let op_max = 3

let op_scale = 4

type t = {
  n_vars : int;
  root : int;
  nterm : int;  (* slots [0, nterm) are the terms *)
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
  w : float array;  (* normalised softmax weights, parallel to [child] *)
  mv : float array;  (* exp of each monomial, at its segment start *)
  md : float array;  (* tangent Σ e·dx of each monomial, likewise *)
  vd : float array;  (* per-slot value tangents (HVP forward sweep) *)
  adjd : float array;  (* per-slot adjoint tangents (HVP reverse sweep) *)
  wd : float array;  (* softmax weight tangents, parallel to [child] *)
  sel : int array;  (* per-slot first-maximising branch (maxima only) *)
  (* The held point: the [n_vars] coordinates and then the mu of the
     last forward sweep, whose values, weights and selections [v], [w]
     and [sel] hold while [holding]. *)
  held : float array;
  mutable holding : bool;
}

(* The builder writes each slot and its term/child segment straight
   into growable flat arrays as a front end's walk returns from each
   node, term slots into one block and every other slot into another.
   Flat arrays rather than boxed per-slot instructions: on deep-MDG
   tapes list cells and variant boxes would dominate construction
   time.  A call returns a reference, not a slot index: term i is 2i
   and other slot j is 2j + 1, so references stay non-negative and
   callers may keep -1 for "none".  [finish] resolves every child,
   scale and root reference once, when the term count is known. *)
module Builder = struct
  type tape = t

  type t = {
    (* Term block: coefficient and monomial of each term slot. *)
    mutable tc : float array;
    mutable tmono : int array;
    mutable nterm : int;
    (* Other block. *)
    mutable op : int array;
    mutable lo : int array;
    mutable hi : int array;
    mutable c : float array;
    mutable nother : int;
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
      tc = Array.make cap 0.0;
      tmono = Array.make cap 0;
      nterm = 0;
      op = Array.make cap 0;
      lo = Array.make cap 0;
      hi = Array.make cap 0;
      c = Array.make cap 0.0;
      nother = 0;
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

  (* Append one non-term slot and return its reference; its child
     segment must already be pushed, contiguously. *)
  let slot b o l h cv =
    if b.nother = Array.length b.op then begin
      b.op <- grow b.op 0;
      b.lo <- grow b.lo 0;
      b.hi <- grow b.hi 0;
      b.c <- grow b.c 0.0
    end;
    let j = b.nother in
    b.op.(j) <- o;
    b.lo.(j) <- l;
    b.hi.(j) <- h;
    b.c.(j) <- cv;
    b.nother <- j + 1;
    (2 * j) + 1

  (* Append a term slot over monomial [m] and return its reference. *)
  let term_slot b m coeff =
    if b.nterm = Array.length b.tc then begin
      b.tc <- grow b.tc 0.0;
      b.tmono <- grow b.tmono 0
    end;
    let i = b.nterm in
    b.tc.(i) <- coeff;
    b.tmono.(i) <- m;
    b.nterm <- i + 1;
    2 * i

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
      let i = pool_probe b l b.nentries in
      let m =
        if b.pool.(i) = 0 then begin
          add_mono b i b.nentries;
          b.nmono - 1
        end
        else begin
          b.nentries <- l;
          b.pool.(i) - 1
        end
      in
      term_slot b m coeff
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
    let nt = b.nterm and no = b.nother in
    let n = nt + no in
    let at r = if r land 1 = 0 then r lsr 1 else nt + (r lsr 1) in
    let op = Array.make n op_term in
    let lo = Array.make n 0 and hi = Array.make n 0 in
    let c = Array.make n 0.0 in
    for i = 0 to nt - 1 do
      let m = b.tmono.(i) in
      lo.(i) <- b.mono.(m);
      hi.(i) <- b.mono.(m + 1);
      c.(i) <- b.tc.(i)
    done;
    for j = 0 to no - 1 do
      let o = b.op.(j) in
      op.(nt + j) <- o;
      lo.(nt + j) <- (if o = op_scale then at b.lo.(j) else b.lo.(j));
      hi.(nt + j) <- b.hi.(j);
      c.(nt + j) <- b.c.(j)
    done;
    let child = Array.make b.nchildren 0 in
    for j = 0 to b.nchildren - 1 do
      child.(j) <- at b.child.(j)
    done;
    {
      n_vars = b.max_var + 1;
      root = at root;
      nterm = nt;
      op;
      lo;
      hi;
      c;
      term_var = Array.sub b.term_var 0 b.nentries;
      term_expt = Array.sub b.term_expt 0 b.nentries;
      mono = Array.sub b.mono 0 (b.nmono + 1);
      child;
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
  a.n_vars = b.n_vars && a.root = b.root && a.nterm = b.nterm && a.op = b.op
  && a.lo = b.lo && a.hi = b.hi && a.child = b.child
  && a.term_var = b.term_var && a.mono = b.mono
  && same_bits a.c b.c
  && same_bits a.term_expt b.term_expt

let n_vars t = t.n_vars

let num_slots t = Array.length t.op

let num_term_entries t = Array.length t.term_var

let num_monomials t = Array.length t.mono - 1

let num_children t = Array.length t.child

let create_workspace t =
  let n = Int.max 1 (num_slots t) in
  let entries = Int.max 1 (num_term_entries t) in
  let children = Int.max 1 (num_children t) in
  {
    v = Array.make n 0.0;
    adj = Array.make n 0.0;
    w = Array.make children 0.0;
    mv = Array.make entries 0.0;
    md = Array.make entries 0.0;
    vd = Array.make n 0.0;
    adjd = Array.make n 0.0;
    wd = Array.make children 0.0;
    sel = Array.make n (-1);
    held = Array.make (t.n_vars + 1) 0.0;
    holding = false;
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
   picks, and passes over NaN branches).  When the max is empty or
   every branch is [neg_infinity] or NaN [sel] is -1: settle on [lo]
   if the slot's value is [neg_infinity] (matching a downward [>=]
   rescan), and on nothing for NaN. *)
let rev_sel t ws p =
  if ws.sel.(p) >= 0 then ws.sel.(p)
  else if ws.v.(p) = neg_infinity && t.hi.(p) > t.lo.(p) then t.lo.(p)
  else min_int

(* Whether the workspace holds the sweep at [x] and [mu]: the first
   [n_vars] coordinates and [mu] compared by bits, so -0.0 and 0.0
   differ and a NaN matches only its own bits. *)
let holds t ws x mu =
  ws.holding
  &&
  let h = ws.held and n = t.n_vars in
  Int64.bits_of_float h.%(n) = Int64.bits_of_float mu
  &&
  let i = ref 0 in
  while !i < n && Int64.bits_of_float h.%(!i) = Int64.bits_of_float x.%(!i) do
    incr i
  done;
  !i = n

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
   exp 0 = 1, and exp underflows to +0 below about −745.13. *)
let[@inline] lse_term vj m mu =
  if vj = m then 1.0
  else
    let z = (vj -. m) /. mu in
    if z < -746.0 then 0.0 else exp z

(* log s, skipping log 1 = 0: s is exactly 1 whenever every other
   branch lies more than about 37·mu below the top, as most do at
   tight temperatures. *)
let[@inline] lse_log s = if s = 1.0 then 0.0 else log s

(* The forward sweep at [x] and [mu], unless the workspace holds it
   already: the term block straight off the monomial exps, then the
   other block.  A max records its first maximising branch in [sel]
   (the reverse sweeps and the HVP passes replay the subgradient
   tie-break from it) and, smoothed, its normalised softmax weights in
   [w]; it takes a NaN branch's value, as {!Expr}'s [Float.max] does.
   Allocation-free: the accumulators are unboxed local floats. *)
let forward ~mu t ws x =
  if not (holds t ws x mu) then begin
    let v = ws.v and w = ws.w and sel = ws.sel and mv = ws.mv in
    let opa = t.op and loa = t.lo and hia = t.hi and ca = t.c in
    let ch = t.child in
    monomial_exps t ws x;
    for k = 0 to t.nterm - 1 do
      v.%(k) <- ca.%(k) *. mv.%(loa.%(k))
    done;
    for k = t.nterm to Array.length opa - 1 do
      let o = opa.%(k) in
      if o = op_sum then begin
        let acc = ref ca.%(k) in
        for j = loa.%(k) to hia.%(k) - 1 do
          acc := !acc +. v.%(ch.%(j))
        done;
        v.%(k) <- !acc
      end
      else if o = op_max then begin
        let l = loa.%(k) and h = hia.%(k) in
        let m = ref neg_infinity and top = ref (-1) and nan = ref (-1) in
        for j = l to h - 1 do
          let vj = v.%(ch.%(j)) in
          if vj > !m then begin
            m := vj;
            top := j
          end
          else if Float.is_nan vj && !nan < 0 then nan := j
        done;
        sel.%(k) <- !top;
        if !nan >= 0 then m := v.%(ch.%(!nan))
        else if mu > 0.0 && Float.is_finite !m then begin
          let s = ref 0.0 in
          for j = l to h - 1 do
            let e = lse_term v.%(ch.%(j)) !m mu in
            w.%(j) <- e;
            s := !s +. e
          done;
          (* x /. 1 = x: most maxima have a single surviving branch. *)
          if !s <> 1.0 then begin
            let s = !s in
            for j = l to h - 1 do
              w.%(j) <- w.%(j) /. s
            done
          end;
          m := !m +. (mu *. lse_log !s)
        end;
        (* Fused scale factor (1.0 for a plain max: bit-identical). *)
        v.%(k) <- ca.%(k) *. !m
      end
      else if o = op_scale then v.%(k) <- ca.%(k) *. v.%(loa.%(k))
      else (* op_const *) v.%(k) <- ca.%(k)
    done;
    let h = ws.held and n = t.n_vars in
    for i = 0 to n - 1 do
      h.%(i) <- x.%(i)
    done;
    h.%(n) <- mu;
    ws.holding <- true
  end;
  ws.v.(t.root)

let eval ?(mu = 0.0) t ws x =
  check_dim "eval" t x;
  forward ~mu t ws x

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

(* Reverse sweep after a forward sweep at the same [mu]: adjoints from
   the root down through the other block, then each term's share of
   the gradient, which [grad] is overwritten with. *)
let reverse ~mu t ws grad =
  let v = ws.v and adj = ws.adj and w = ws.w in
  let opa = t.op and loa = t.lo and hia = t.hi and ca = t.c in
  let tv = t.term_var and te = t.term_expt and ch = t.child in
  let n = Array.length opa in
  Array.fill adj 0 n 0.0;
  Array.fill grad 0 (Vec.dim grad) 0.0;
  adj.(t.root) <- 1.0;
  for k = n - 1 downto t.nterm do
    let a = adj.%(k) in
    if a <> 0.0 then begin
      let o = opa.%(k) in
      if o = op_sum then
        for j = loa.%(k) to hia.%(k) - 1 do
          let cj = ch.%(j) in
          adj.%(cj) <- adj.%(cj) +. a
        done
      else if o = op_max then begin
        (* The fused scale factor multiplies the adjoint, exactly as
           the separate scale slot did before propagation. *)
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
  for k = t.nterm - 1 downto 0 do
    let a = adj.%(k) in
    if a <> 0.0 then
      for j = loa.%(k) to hia.%(k) - 1 do
        let i = tv.%(j) in
        grad.%(i) <- grad.%(i) +. (a *. te.%(j) *. v.%(k))
      done
  done

let eval_grad ?(mu = 0.0) t ws ~x ~grad =
  check_dim "eval_grad" t x;
  if Vec.dim grad <> Vec.dim x then
    invalid_arg "Tape.eval_grad: grad/x dimension mismatch";
  let value = forward ~mu t ws x in
  reverse ~mu t ws grad;
  value

(* ------------------------------------------------------------------ *)
(* Hessian-vector products                                             *)
(* ------------------------------------------------------------------ *)

(* The HVP is forward-over-reverse: a tangent pass, then the adjoint
   tangents.  {!eval_hvp} runs them around its forward and reverse
   sweeps; {!hvp} runs them alone, on the values and adjoints of the
   preceding {!eval_grad}.  Both passes read the mu of the last
   forward sweep, the held one: a forward sweep at [mu] leaves [mu]'s
   bits there, whether it ran or the workspace held its point. *)

(* The tangent pass along [dx], reading the values, weights and
   selections of the forward sweep at the same point: [ws.vd.(k)]
   becomes the directional derivative of slot [k] and, for smoothed
   maxima, [ws.wd.(j)] the tangent of weight [ws.w.(j)]. *)
let tangents t ws dx =
  let mu = ws.held.(t.n_vars) in
  let v = ws.v and w = ws.w and md = ws.md and vd = ws.vd and wd = ws.wd in
  let opa = t.op and loa = t.lo and hia = t.hi and ca = t.c in
  let tv = t.term_var and te = t.term_expt and mono = t.mono in
  let ch = t.child in
  (* Each monomial's tangent Σ e·dx, summed in stored order, at its
     segment start. *)
  for m = 0 to Array.length mono - 2 do
    let acc = ref 0.0 in
    for j = mono.%(m) to mono.%(m + 1) - 1 do
      acc := !acc +. (te.%(j) *. dx.%(tv.%(j)))
    done;
    md.%(mono.%(m)) <- !acc
  done;
  (* d(c·e^s) = c·e^s·ds *)
  for k = 0 to t.nterm - 1 do
    vd.%(k) <- v.%(k) *. md.%(loa.%(k))
  done;
  for k = t.nterm to Array.length opa - 1 do
    let o = opa.%(k) and l = loa.%(k) and h = hia.%(k) in
    if o = op_sum then begin
      let acc = ref 0.0 in
      for j = l to h - 1 do
        acc := !acc +. vd.%(ch.%(j))
      done;
      vd.%(k) <- !acc
    end
    else if o = op_max then begin
      if mu > 0.0 && Float.is_finite v.%(k) then begin
        let d = ref 0.0 in
        for j = l to h - 1 do
          d := !d +. (w.%(j) *. vd.%(ch.%(j)))
        done;
        (* dw_j = w_j (dv_j - d)/mu, with d = sum_l w_l dv_l the
           tangent of the unscaled log-sum-exp (the weights are its
           derivatives; the fused factor scales the slot's own
           outgoing tangent). *)
        let d = !d in
        for j = l to h - 1 do
          wd.%(j) <- w.%(j) *. (vd.%(ch.%(j)) -. d) /. mu
        done;
        vd.%(k) <- ca.%(k) *. d
      end
      else
        (* At [mu <= 0] the max is piecewise linear: the tangent
           follows the first maximising branch, the branch the
           subgradient picks, so the product is the Hessian of the
           active piece. *)
        let s = ws.sel.%(k) in
        vd.%(k) <- ca.%(k) *. (if s >= 0 then vd.%(ch.%(s)) else 0.0)
    end
    else if o = op_scale then vd.%(k) <- ca.%(k) *. vd.%(l)
    else (* op_const *) vd.%(k) <- 0.0
  done

(* The adjoint-tangent pass, after [tangents] and the reverse sweep at
   the same point: adjoint tangents [ws.adjd] from the root down
   through the other block, reading the adjoints [ws.adj], then each
   term's share of the product, which [hvp] is overwritten with. *)
let adjoint_tangents t ws hvp =
  let mu = ws.held.(t.n_vars) in
  let v = ws.v and adj = ws.adj and w = ws.w and vd = ws.vd in
  let adjd = ws.adjd and wd = ws.wd in
  let opa = t.op and loa = t.lo and hia = t.hi and ca = t.c in
  let tv = t.term_var and te = t.term_expt and ch = t.child in
  let n = Array.length opa in
  Array.fill adjd 0 n 0.0;
  Array.fill hvp 0 (Vec.dim hvp) 0.0;
  for k = n - 1 downto t.nterm do
    let a = adj.%(k) and ad = adjd.%(k) in
    if a <> 0.0 || ad <> 0.0 then begin
      let o = opa.%(k) and l = loa.%(k) and h = hia.%(k) in
      if o = op_sum then
        for j = l to h - 1 do
          let cj = ch.%(j) in
          adjd.%(cj) <- adjd.%(cj) +. ad
        done
      else if o = op_max then begin
        let ac = a *. ca.%(k) in
        let adc = ad *. ca.%(k) in
        if mu > 0.0 && Float.is_finite v.%(k) then
          for j = l to h - 1 do
            let cj = ch.%(j) in
            (* d(a·w_j) = da·w_j + a·dw_j — the a·dw_j term is where
               the curvature of the smoothed max enters the Hessian. *)
            adjd.%(cj) <- adjd.%(cj) +. (adc *. w.%(j)) +. (ac *. wd.%(j))
          done
        else begin
          (* The branch indicator is locally constant: zero tangent. *)
          let j = rev_sel t ws k in
          if j >= l then begin
            let cj = ch.%(j) in
            adjd.%(cj) <- adjd.%(cj) +. adc
          end
        end
      end
      else if o = op_scale then adjd.%(l) <- adjd.%(l) +. (ad *. ca.%(k))
      (* op_const: nothing *)
    end
  done;
  (* d(a·e·v) = e·(da·v + a·dv) *)
  for k = t.nterm - 1 downto 0 do
    let a = adj.%(k) and ad = adjd.%(k) in
    if a <> 0.0 || ad <> 0.0 then begin
      let vk = v.%(k) and vdk = vd.%(k) in
      for j = loa.%(k) to hia.%(k) - 1 do
        let i = tv.%(j) in
        let e = te.%(j) in
        hvp.%(i) <- hvp.%(i) +. (e *. ((ad *. vk) +. (a *. vdk)))
      done
    end
  done

let eval_hvp ?(mu = 0.0) t ws ~x ~dx ~grad ~hvp =
  check_dim "eval_hvp" t x;
  if Vec.dim dx <> Vec.dim x then
    invalid_arg "Tape.eval_hvp: dx/x dimension mismatch";
  if Vec.dim grad <> Vec.dim x || Vec.dim hvp <> Vec.dim x then
    invalid_arg "Tape.eval_hvp: grad/hvp/x dimension mismatch";
  let value = forward ~mu t ws x in
  tangents t ws dx;
  reverse ~mu t ws grad;
  adjoint_tangents t ws hvp;
  value

(* The two HVP passes alone: the tangent pass reads only the forward
   sweep's values, weights and selections, and the reverse sweep
   writes only the adjoints and the gradient, so after {!eval_grad}
   this is {!eval_hvp}'s product bit for bit. *)
let hvp t ws ~dx ~hvp =
  check_dim "hvp" t dx;
  if Vec.dim hvp <> Vec.dim dx then
    invalid_arg "Tape.hvp: hvp/dx dimension mismatch";
  tangents t ws dx;
  adjoint_tangents t ws hvp

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
  let loa = t.lo and hia = t.hi in
  let tv = t.term_var and te = t.term_expt in
  let v = ws.v and adj = ws.adj in
  for k = 0 to t.nterm - 1 do
    let a = adj.%(k) in
    if a <> 0.0 then begin
      let av = a *. v.%(k) in
      for j = loa.%(k) to hia.%(k) - 1 do
        let e = te.%(j) in
        let i = tv.%(j) in
        diag.%(i) <- diag.%(i) +. (av *. e *. e)
      done
    end
  done
