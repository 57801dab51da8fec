module Make (K : Hashtbl.HashedType) = struct
  module H = Hashtbl.Make (K)

  type 'v t = { tbl : 'v H.t; lock : Mutex.t; max_entries : int }

  let create ~max_entries () =
    if max_entries < 1 then invalid_arg "Memo.create: max_entries < 1";
    { tbl = H.create (min max_entries 16); lock = Mutex.create (); max_entries }

  let find t k = Mutex.protect t.lock (fun () -> H.find_opt t.tbl k)

  let add t k v =
    Mutex.protect t.lock (fun () ->
        match H.find_opt t.tbl k with
        | Some resident -> resident
        | None ->
            if H.length t.tbl >= t.max_entries then H.reset t.tbl;
            H.add t.tbl k v;
            v)

  let clear t = Mutex.protect t.lock (fun () -> H.reset t.tbl)
  let length t = Mutex.protect t.lock (fun () -> H.length t.tbl)
end
