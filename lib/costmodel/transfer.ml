module E = Convex.Expr
module P = Convex.Posynomial

type components = { send : float; network : float; receive : float }

let check_args ~bytes ~p_send ~p_recv =
  if bytes < 0.0 || not (Float.is_finite bytes) then
    invalid_arg "Transfer: byte count negative or not finite";
  (* Negated so that a NaN count fails too. *)
  if not (p_send >= 1.0 && p_recv >= 1.0) then
    invalid_arg "Transfer: processor counts must be >= 1"

let components (tr : Params.transfer) ~kind ~bytes ~p_send ~p_recv =
  check_args ~bytes ~p_send ~p_recv;
  if bytes = 0.0 then { send = 0.0; network = 0.0; receive = 0.0 }
  else
    let pi = p_send and pj = p_recv and l = bytes in
    match (kind : Mdg.Graph.transfer_kind) with
    | Oned ->
        let pmax = Float.max pi pj in
        {
          send = (pmax /. pi *. tr.t_ss) +. (l /. pi *. tr.t_ps);
          network = l /. pmax *. tr.t_n;
          receive = (pmax /. pj *. tr.t_sr) +. (l /. pj *. tr.t_pr);
        }
    | Twod ->
        {
          send = (pj *. tr.t_ss) +. (l /. pi *. tr.t_ps);
          network = l /. (pi *. pj) *. tr.t_n;
          receive = (pi *. tr.t_sr) +. (l /. pj *. tr.t_pr);
        }

let total { send; network; receive } = send +. network +. receive

(* [max(1, p_j/p_i)] as a convex expression. *)
let max1_ratio ~num ~den =
  E.max_ [ E.term ~coeff:1.0 ~expts:[]; E.term ~coeff:1.0 ~expts:[ (num, 1.0); (den, -1.0) ] ]

let zero = E.const 0.0

let send_expr (tr : Params.transfer) ~kind ~bytes ~vi ~vj =
  if bytes = 0.0 then zero
  else
    match (kind : Mdg.Graph.transfer_kind) with
    | Oned ->
        E.sum
          [
            E.scale tr.t_ss (max1_ratio ~num:vj ~den:vi);
            E.term ~coeff:(bytes *. tr.t_ps) ~expts:[ (vi, -1.0) ];
          ]
    | Twod ->
        E.sum
          [
            E.term ~coeff:tr.t_ss ~expts:[ (vj, 1.0) ];
            E.term ~coeff:(bytes *. tr.t_ps) ~expts:[ (vi, -1.0) ];
          ]

let receive_expr (tr : Params.transfer) ~kind ~bytes ~vi ~vj =
  if bytes = 0.0 then zero
  else
    match (kind : Mdg.Graph.transfer_kind) with
    | Oned ->
        E.sum
          [
            E.scale tr.t_sr (max1_ratio ~num:vi ~den:vj);
            E.term ~coeff:(bytes *. tr.t_pr) ~expts:[ (vj, -1.0) ];
          ]
    | Twod ->
        E.sum
          [
            E.term ~coeff:tr.t_sr ~expts:[ (vi, 1.0) ];
            E.term ~coeff:(bytes *. tr.t_pr) ~expts:[ (vj, -1.0) ];
          ]

let network_expr (tr : Params.transfer) ~kind ~bytes ~vi ~vj =
  if bytes = 0.0 || tr.t_n = 0.0 then zero
  else
    match (kind : Mdg.Graph.transfer_kind) with
    | Oned ->
        (* Posynomial surrogate: 1/max(pi,pj) <= 1/sqrt(pi*pj). *)
        E.term ~coeff:(bytes *. tr.t_n) ~expts:[ (vi, -0.5); (vj, -0.5) ]
    | Twod -> E.term ~coeff:(bytes *. tr.t_n) ~expts:[ (vi, -1.0); (vj, -1.0) ]

(* t^S·p_i.  For the 1D case: max(p_i, p_j)·t_ss + L·t_ps. *)
let send_times_p_expr (tr : Params.transfer) ~kind ~bytes ~vi ~vj =
  if bytes = 0.0 then zero
  else
    match (kind : Mdg.Graph.transfer_kind) with
    | Oned ->
        E.sum
          [
            E.scale tr.t_ss
              (E.max_
                 [
                   E.term ~coeff:1.0 ~expts:[ (vi, 1.0) ];
                   E.term ~coeff:1.0 ~expts:[ (vj, 1.0) ];
                 ]);
            E.const (bytes *. tr.t_ps);
          ]
    | Twod ->
        E.sum
          [
            E.term ~coeff:tr.t_ss ~expts:[ (vi, 1.0); (vj, 1.0) ];
            E.const (bytes *. tr.t_ps);
          ]

(* t^R·p_j. *)
let receive_times_p_expr (tr : Params.transfer) ~kind ~bytes ~vi ~vj =
  if bytes = 0.0 then zero
  else
    match (kind : Mdg.Graph.transfer_kind) with
    | Oned ->
        E.sum
          [
            E.scale tr.t_sr
              (E.max_
                 [
                   E.term ~coeff:1.0 ~expts:[ (vi, 1.0) ];
                   E.term ~coeff:1.0 ~expts:[ (vj, 1.0) ];
                 ]);
            E.const (bytes *. tr.t_pr);
          ]
    | Twod ->
        E.sum
          [
            E.term ~coeff:tr.t_sr ~expts:[ (vi, 1.0); (vj, 1.0) ];
            E.const (bytes *. tr.t_pr);
          ]

let pos_term c expts = if c > 0.0 then P.monomial c expts else P.zero

let send_posynomial_2d (tr : Params.transfer) ~bytes ~vi ~vj =
  P.sum [ pos_term tr.t_ss [ (vj, 1.0) ]; pos_term (bytes *. tr.t_ps) [ (vi, -1.0) ] ]

let receive_posynomial_2d (tr : Params.transfer) ~bytes ~vi ~vj =
  P.sum [ pos_term tr.t_sr [ (vi, 1.0) ]; pos_term (bytes *. tr.t_pr) [ (vj, -1.0) ] ]

let network_posynomial_2d (tr : Params.transfer) ~bytes ~vi ~vj =
  pos_term (bytes *. tr.t_n) [ (vi, -1.0); (vj, -1.0) ]
