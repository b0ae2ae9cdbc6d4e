(* The sanctioned shape: the tag is rendered from its constructor. *)
let ping net dst k =
  Net.send_to net ~src:0 ~dst
    ~tag:(Net.intern_tag net (Protocol.suffix_to_string Protocol.Ping))
    ~bits:8 k

(* A literal interned past the renderer: it spells the Pong arm but names
   no constructor, so the send is unresolved and Pong has no send site. *)
let pong net dst k =
  Net.send_to net ~src:0 ~dst ~tag:(Net.intern_tag net "pong") ~bits:8 k
