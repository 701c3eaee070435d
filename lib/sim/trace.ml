type firing = {
  at_s : float;
  proc : int;
  kernel : string;
  method_name : string;
  service_s : float;
}

type t = { mutable rev : firing list }

let recorder () =
  let t = { rev = [] } in
  let observer ~time_s ~proc ~node ~method_name ~service_s =
    t.rev <-
      {
        at_s = time_s;
        proc;
        kernel = node.Bp_graph.Graph.name;
        method_name;
        service_s;
      }
      :: t.rev
  in
  (t, observer)

let firings t = List.rev t.rev

let gantt t =
  let width = 72 in
  let fs = firings t in
  match fs with
  | [] -> "(empty trace)\n"
  | _ ->
    let t0 = (List.hd fs).at_s in
    let t1 =
      List.fold_left (fun acc f -> Float.max acc (f.at_s +. f.service_s)) t0 fs
    in
    let span = Float.max (t1 -. t0) 1e-12 in
    let procs = 1 + List.fold_left (fun acc f -> max acc f.proc) 0 fs in
    let rows = Array.init procs (fun _ -> Bytes.make width '.') in
    List.iter
      (fun f ->
        let c0 =
          int_of_float (Float.of_int width *. (f.at_s -. t0) /. span)
        in
        let c1 =
          int_of_float
            (Float.of_int width *. (f.at_s +. f.service_s -. t0) /. span)
        in
        for c = max 0 c0 to min (width - 1) (max c0 c1) do
          Bytes.set rows.(f.proc) c '#'
        done)
      fs;
    let buf = Buffer.create (procs * (width + 12)) in
    Array.iteri
      (fun p row ->
        Buffer.add_string buf (Printf.sprintf "PE%-3d |%s|\n" p (Bytes.to_string row)))
      rows;
    Buffer.add_string buf
      (Printf.sprintf "       %g s .. %g s\n" t0 t1);
    Buffer.contents buf
