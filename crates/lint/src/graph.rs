//! Workspace symbol table and conservative call graph.
//!
//! Built on the item parser: every non-test `fn` in the workspace
//! becomes a node, and call *edges* are resolved by name plus a
//! receiver-type heuristic — no real type inference:
//!
//! * `free(x)` — edges to free functions named `free`, preferring
//!   same-file definitions (an unqualified call cannot leave its
//!   module), and otherwise only in the caller's own crate or a crate
//!   it depends on ([`CrateDeps`], read from the workspace manifests).
//! * `recv.method(x)` — the receiver's type comes from a best-effort
//!   type environment: fn parameters, `let x: T` annotations,
//!   `let x = Type::ctor(..)` constructors, and — for
//!   `self.field.method()` — the enclosing type's struct field
//!   declarations. A known workspace type resolves to its own methods,
//!   its traits' default bodies, and (when the receiver *is* a trait)
//!   every implementor's method. A known type *without* the method is a
//!   std/derived call — no edge. An unknown receiver over-approximates
//!   to every workspace method of that name the caller's crate can
//!   see — its own and its dependencies' methods, plus trait-impl
//!   methods of traits it can see (a generic call dispatches
//!   downstream) — except ubiquitous std names (`map`, `iter`, `len`,
//!   …) which would drown the graph in false edges and are dropped
//!   instead.
//! * `Type::method(x)` — the same typed lookup; falls back to free
//!   functions (`module::helper(..)` paths), then — for unknown
//!   non-std qualifiers such as generic parameters — to every method
//!   of that name.
//!
//! The result still over-approximates real calls (the interprocedural
//! lints must not miss paths through workspace code) while staying
//! deterministic: nodes are numbered in sorted-file / source order and
//! adjacency lists are sorted, so every BFS — and therefore every
//! witness chain — is byte-stable across runs.

use crate::context::FileContext;
use crate::lexer::{Tok, TokKind};
use crate::lints::crate_of;
use crate::parser::{Item, ItemKind};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// One function in the workspace.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Node index (position in [`CallGraph::nodes`]).
    pub id: usize,
    /// Bare function name.
    pub name: String,
    /// Qualified name for witness chains:
    /// `crate::file_stem::mods::Type::name` with redundant segments
    /// (`lib`, `main`, `mod`) dropped.
    pub qname: String,
    /// File the function lives in (workspace-relative).
    pub file: String,
    /// Index of that file in the scan's sorted file list.
    pub file_idx: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range of the signature (item start through body open) —
    /// mined for parameter types.
    pub sig: Range<usize>,
    /// Token range of the body within the file's code tokens.
    pub body: Range<usize>,
    /// Enclosing impl type, when the fn is a method.
    pub self_type: Option<String>,
    /// The trait the method implements or provides a default body for.
    pub of_trait: Option<String>,
    /// The fn sits under a hot-path marker comment.
    pub is_hot: bool,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All non-test functions, in deterministic order.
    pub nodes: Vec<FnNode>,
    /// `edges[i]` — sorted, deduplicated callee ids of node `i`.
    pub edges: Vec<Vec<usize>>,
}

/// Workspace type declarations: struct fields and trait/impl relations,
/// mined from the item trees for receiver typing.
#[derive(Debug, Default)]
struct TypeInfo {
    /// Struct name → field name → field type's outermost identifier.
    fields: BTreeMap<String, BTreeMap<String, String>>,
    /// Type name → traits it implements.
    impls_of: BTreeMap<String, Vec<String>>,
    /// Trait name → implementing types.
    implementors: BTreeMap<String, Vec<String>>,
    /// Every workspace-declared type and trait name.
    known: BTreeSet<String>,
    /// Trait name → crates declaring a trait of that name.
    trait_crates: BTreeMap<String, BTreeSet<String>>,
}

impl TypeInfo {
    fn collect(files: &[(String, FileContext, Vec<Item>)]) -> TypeInfo {
        let mut info = TypeInfo::default();
        for (path, ctx, items) in files {
            info.walk(items, &ctx.code, &crate_of(path));
        }
        info
    }

    fn walk(&mut self, items: &[Item], code: &[Tok], krate: &str) {
        for it in items {
            match it.kind {
                ItemKind::Struct => {
                    self.known.insert(it.name.clone());
                    if let Some(b) = &it.body {
                        let fs = self.fields.entry(it.name.clone()).or_default();
                        for (f, ty) in bindings(code, b.clone()) {
                            fs.insert(f, ty);
                        }
                    }
                }
                ItemKind::Trait => {
                    self.known.insert(it.name.clone());
                    self.trait_crates
                        .entry(it.name.clone())
                        .or_default()
                        .insert(krate.to_owned());
                    self.walk(&it.children, code, krate);
                }
                ItemKind::Impl => {
                    if it.name != "?" {
                        self.known.insert(it.name.clone());
                        if let Some(tr) = &it.of_trait {
                            self.impls_of
                                .entry(it.name.clone())
                                .or_default()
                                .push(tr.clone());
                            self.implementors
                                .entry(tr.clone())
                                .or_default()
                                .push(it.name.clone());
                        }
                    }
                    self.walk(&it.children, code, krate);
                }
                ItemKind::Mod => self.walk(&it.children, code, krate),
                ItemKind::Fn | ItemKind::Use => {}
            }
        }
    }

    /// All methods callable as `ty.name(..)` through workspace
    /// declarations: the type's own impls, its traits' default bodies,
    /// and — when `ty` is a trait — every implementor.
    fn lookup(
        &self,
        typed: &BTreeMap<(&str, &str), Vec<usize>>,
        ty: &str,
        name: &str,
    ) -> Vec<usize> {
        let mut out = Vec::new();
        if let Some(v) = typed.get(&(ty, name)) {
            out.extend(v);
        }
        for tr in self.impls_of.get(ty).into_iter().flatten() {
            if let Some(v) = typed.get(&(tr.as_str(), name)) {
                out.extend(v);
            }
        }
        for imp in self.implementors.get(ty).into_iter().flatten() {
            if let Some(v) = typed.get(&(imp.as_str(), name)) {
                out.extend(v);
            }
        }
        out
    }
}

/// Which crates each crate's code can call into: itself, its direct
/// dependencies (normal, dev and build), and their normal dependencies,
/// transitively. Read from the workspace manifests (`Cargo.toml` and
/// `crates/*/Cargo.toml`); crates are keyed as [`crate_of`] keys them.
/// A crate without a manifest sees every crate, which keeps the call
/// graph an over-approximation when manifests are not supplied.
#[derive(Debug, Default)]
pub struct CrateDeps {
    visible: BTreeMap<String, BTreeSet<String>>,
}

/// One dependency line of a manifest.
#[derive(Debug)]
struct Dep {
    key: String,
    path: Option<String>,
    package: Option<String>,
    /// From `[dependencies]` (or a target-specific one): transitive.
    normal: bool,
}

/// What the lint needs from one manifest: the package name, its
/// dependencies, and the `[workspace.dependencies]` table.
#[derive(Debug, Default)]
struct Manifest {
    package: Option<String>,
    deps: Vec<Dep>,
    workspace_deps: Vec<Dep>,
}

/// The quoted value of `field = "…"` inside `text`, if present.
fn quoted_field(text: &str, field: &str) -> Option<String> {
    let at = text.find(&format!("{field} = \""))? + field.len() + 4;
    let len = text[at..].find('"')?;
    Some(text[at..at + len].to_owned())
}

impl Manifest {
    /// A line-based reading of the manifest subset the workspace uses:
    /// `[package] name`, and `key = …` / `key.workspace = true` lines in
    /// the dependency tables, with their `path` and `package` fields.
    fn parse(text: &str) -> Manifest {
        let mut m = Manifest::default();
        let mut section = String::new();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                section = name.trim_end_matches(']').trim().to_owned();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            let key = key.split('.').next().unwrap_or(key).trim().to_owned();
            if section == "package" && key == "name" {
                m.package = Some(value.trim().trim_matches('"').to_owned());
            } else if section.ends_with("dependencies") {
                let dep = Dep {
                    key,
                    path: quoted_field(value, "path"),
                    package: quoted_field(value, "package"),
                    normal: section == "dependencies" || section.ends_with(".dependencies"),
                };
                if section == "workspace.dependencies" {
                    m.workspace_deps.push(dep);
                } else {
                    m.deps.push(dep);
                }
            }
        }
        m
    }
}

/// The crate key of a dependency's `path`: its last path component
/// (`crates/rand` → `rand`).
fn path_crate(path: &str) -> String {
    path.trim_end_matches('/')
        .rsplit('/')
        .next()
        .unwrap_or(path)
        .to_owned()
}

impl CrateDeps {
    /// Reads `(path, text)` manifests. A dependency resolves to a
    /// workspace crate through its own `path`, the workspace table's
    /// `path` for its key, or a manifest's package name; anything else
    /// is external and ignored.
    #[must_use]
    pub fn from_manifests(manifests: &[(&str, &str)]) -> CrateDeps {
        let parsed: Vec<(String, Manifest)> = manifests
            .iter()
            .map(|(path, text)| (crate_of(path), Manifest::parse(text)))
            .collect();
        let workspace: BTreeMap<&str, String> = parsed
            .iter()
            .flat_map(|(_, m)| &m.workspace_deps)
            .filter_map(|d| Some((d.key.as_str(), path_crate(d.path.as_deref()?))))
            .collect();
        let packages: BTreeMap<&str, &str> = parsed
            .iter()
            .filter_map(|(krate, m)| Some((m.package.as_deref()?, krate.as_str())))
            .collect();
        let resolve = |d: &Dep| -> Option<String> {
            if let Some(path) = &d.path {
                return Some(path_crate(path));
            }
            workspace.get(d.key.as_str()).cloned().or_else(|| {
                let name = d.package.as_deref().unwrap_or(&d.key);
                packages.get(name).map(|&k| k.to_owned())
            })
        };
        let deps_of: BTreeMap<&str, Vec<(String, bool)>> = parsed
            .iter()
            .map(|(krate, m)| {
                let deps = m
                    .deps
                    .iter()
                    .filter_map(|d| Some((resolve(d)?, d.normal)))
                    .collect();
                (krate.as_str(), deps)
            })
            .collect();
        let mut visible = BTreeMap::new();
        for (&krate, direct) in &deps_of {
            let mut seen: BTreeSet<String> = BTreeSet::from([krate.to_owned()]);
            let mut queue: Vec<String> = direct.iter().map(|(d, _)| d.clone()).collect();
            while let Some(d) = queue.pop() {
                if seen.insert(d.clone()) {
                    let normal = deps_of.get(d.as_str()).into_iter().flatten();
                    queue.extend(normal.filter(|(_, n)| *n).map(|(dd, _)| dd.clone()));
                }
            }
            visible.insert(krate.to_owned(), seen);
        }
        CrateDeps { visible }
    }

    /// Whether code in crate `from` can call into crate `to`.
    #[must_use]
    pub fn sees(&self, from: &str, to: &str) -> bool {
        self.visible.get(from).is_none_or(|v| v.contains(to))
    }
}

impl CallGraph {
    /// Builds the graph for a set of parsed files, limiting by-name
    /// call resolution to the crates `deps` makes visible. `files` must
    /// be in sorted path order (the scan guarantees it) so node ids —
    /// and witness chains — are deterministic.
    #[must_use]
    pub fn build(files: &[(String, FileContext, Vec<Item>)], deps: &CrateDeps) -> CallGraph {
        let mut g = CallGraph::default();
        for (file_idx, (path, ctx, items)) in files.iter().enumerate() {
            let stem = file_stem(path);
            let mut prefix = vec![crate_of(path)];
            if !matches!(stem.as_str(), "lib" | "main" | "mod") {
                prefix.push(stem);
            }
            collect_fns(&mut g, path, file_idx, ctx, items, &prefix, (None, None));
        }
        g.resolve_edges(files, deps);
        g
    }

    /// Looks up nodes by exact qualified name (diagnostic helper).
    #[must_use]
    pub fn find(&self, qname: &str) -> Option<&FnNode> {
        self.nodes.iter().find(|n| n.qname == qname)
    }

    /// Multi-source BFS from `starts` (node ids): returns, per node, the
    /// predecessor on a shortest path back to a start (`usize::MAX` for
    /// a start itself, `None` when unreachable). FIFO order over sorted
    /// starts and sorted adjacency makes the tree — and every witness
    /// chain read off it — deterministic.
    #[must_use]
    pub fn bfs_parents(&self, starts: &[usize]) -> Vec<Option<usize>> {
        let mut parent: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut queue = std::collections::VecDeque::new();
        let mut sorted = starts.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for &s in &sorted {
            if s < self.nodes.len() && parent[s].is_none() {
                parent[s] = Some(usize::MAX);
                queue.push_back(s);
            }
        }
        while let Some(n) = queue.pop_front() {
            for &m in &self.edges[n] {
                if parent[m].is_none() {
                    parent[m] = Some(n);
                    queue.push_back(m);
                }
            }
        }
        parent
    }

    /// Reads the witness chain for `node` off a [`Self::bfs_parents`]
    /// tree: qualified names from the BFS start down to `node`. Empty
    /// when `node` was not reached.
    #[must_use]
    pub fn witness(&self, parents: &[Option<usize>], node: usize) -> Vec<String> {
        let mut chain = Vec::new();
        let mut cur = node;
        loop {
            match parents.get(cur).copied().flatten() {
                None => return Vec::new(),
                Some(usize::MAX) => {
                    chain.push(self.nodes[cur].qname.clone());
                    chain.reverse();
                    return chain;
                }
                Some(prev) => {
                    chain.push(self.nodes[cur].qname.clone());
                    cur = prev;
                    if chain.len() > self.nodes.len() {
                        return Vec::new(); // cycle guard; cannot happen in a BFS tree
                    }
                }
            }
        }
    }

    /// Resolves call edges for every node (see module docs for the
    /// heuristic).
    fn resolve_edges(&mut self, files: &[(String, FileContext, Vec<Item>)], deps: &CrateDeps) {
        // Name → node-id indices. Free functions and methods resolve
        // through different maps; `(type, name)` pins `Type::method`.
        let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut typed: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for n in &self.nodes {
            match &n.self_type {
                Some(ty) => {
                    methods.entry(&n.name).or_default().push(n.id);
                    typed.entry((ty, &n.name)).or_default().push(n.id);
                }
                None => free.entry(&n.name).or_default().push(n.id),
            }
        }
        let info = TypeInfo::collect(files);
        let crates: Vec<String> = self.nodes.iter().map(|n| crate_of(&n.file)).collect();
        self.edges = vec![Vec::new(); self.nodes.len()];
        for n in 0..self.nodes.len() {
            let node = &self.nodes[n];
            // By-name candidates the caller's crate can reach: its own
            // and its dependencies' fns, plus impls of traits it sees.
            let sees = |m: &usize| {
                deps.sees(&crates[n], &crates[*m])
                    || self.nodes[*m].of_trait.as_ref().is_some_and(|tr| {
                        info.trait_crates
                            .get(tr)
                            .is_none_or(|cs| cs.iter().any(|c| deps.sees(&crates[n], c)))
                    })
            };
            let by_name = |map: &BTreeMap<&str, Vec<usize>>, name: &str| -> Vec<usize> {
                map.get(name)
                    .map_or_else(Vec::new, |v| v.iter().copied().filter(sees).collect())
            };
            let ctx = &files[node.file_idx].1;
            let code = &ctx.code;
            let env = type_env(node, code);
            let mut out: Vec<usize> = Vec::new();
            for i in node.body.clone() {
                let t = &code[i];
                if t.kind != TokKind::Ident || !code.get(i + 1).is_some_and(|x| x.is_punct('(')) {
                    continue;
                }
                let name = t.text.as_str();
                let p1 = i.checked_sub(1).map(|j| &code[j]);
                if p1.is_some_and(|p| p.is_punct('.')) {
                    // `recv.name(` — method call.
                    match receiver_type(node, code, i, &env, &info) {
                        Some(ty) => {
                            let ty = if ty == "Self" {
                                node.self_type.clone().unwrap_or(ty)
                            } else {
                                ty
                            };
                            let resolved = info.lookup(&typed, &ty, name);
                            if !resolved.is_empty() {
                                out.extend(resolved);
                            } else if !info.known.contains(&ty) && !is_std_method(name) {
                                // An out-of-workspace receiver type
                                // (std, generic): fall back by name. A
                                // *known* type without the method is a
                                // std/derived call — no edge.
                                out.extend(by_name(&methods, name));
                            }
                        }
                        None => {
                            if !is_std_method(name) {
                                out.extend(by_name(&methods, name));
                            }
                        }
                    }
                } else if p1.is_some_and(|p| p.is_punct(':'))
                    && i.checked_sub(2)
                        .map(|j| &code[j])
                        .is_some_and(|p| p.is_punct(':'))
                {
                    // `Qual::name(` — the qualifier is the ident before
                    // the `::` (generic turbofish qualifiers stay
                    // unresolved).
                    let qual = i.checked_sub(3).map(|j| &code[j]);
                    let qual_name = match qual {
                        Some(q) if q.is_ident("Self") => node.self_type.clone(),
                        Some(q) if q.kind == TokKind::Ident => Some(q.text.clone()),
                        _ => None,
                    };
                    if let Some(q) = qual_name {
                        let resolved = info.lookup(&typed, &q, name);
                        if !resolved.is_empty() {
                            out.extend(resolved);
                        } else if free.contains_key(name) {
                            // `module::helper(` — the qualifier is a
                            // module path segment.
                            out.extend(by_name(&free, name));
                        } else if !info.known.contains(&q) && !is_std_method(name) {
                            // `C::method(x)` through a generic
                            // parameter — over-approximate by name.
                            out.extend(by_name(&methods, name));
                        }
                    }
                } else if !p1.is_some_and(|p| p.is_ident("fn") || p.kind == TokKind::Ident) {
                    // Plain `name(` — free-function call. (An ident
                    // before it would be a declaration or `fn name(`.)
                    // Same-file definitions shadow the global namespace:
                    // every experiment module defines its own `outcome`,
                    // and an unqualified call cannot leave the module.
                    let fs = by_name(&free, name);
                    let local: Vec<usize> = fs
                        .iter()
                        .copied()
                        .filter(|&m| self.nodes[m].file_idx == node.file_idx)
                        .collect();
                    out.extend(if local.is_empty() { fs } else { local });
                }
            }
            out.sort_unstable();
            out.dedup();
            out.retain(|&m| m != n); // self-loops add nothing to reachability
            self.edges[n] = out;
        }
    }
}

/// Best-effort receiver type for the method call whose name token is at
/// `i` (so `code[i - 1]` is the `.`): literal `self`, `self.field` with
/// a declared struct field, or a local with a known binding. `None`
/// means the receiver could not be typed (chained calls, literals,
/// untracked locals).
fn receiver_type(
    node: &FnNode,
    code: &[Tok],
    i: usize,
    env: &BTreeMap<String, String>,
    info: &TypeInfo,
) -> Option<String> {
    let r = i.checked_sub(2)?;
    let t = &code[r];
    if t.is_ident("self") {
        return node.self_type.clone();
    }
    if t.kind != TokKind::Ident {
        return None;
    }
    if r.checked_sub(1)
        .map(|j| &code[j])
        .is_some_and(|p| p.is_punct('.'))
    {
        // `x.field.name(` — only `self.field` is typed, through the
        // enclosing type's struct declaration.
        if r.checked_sub(2)
            .map(|j| &code[j])
            .is_some_and(|s| s.is_ident("self"))
        {
            let st = node.self_type.as_ref()?;
            return info.fields.get(st)?.get(&t.text).cloned();
        }
        return None;
    }
    if r.checked_sub(1)
        .map(|j| &code[j])
        .is_some_and(|p| p.is_punct(':'))
    {
        return None; // `path::CONST.name(` — not a local
    }
    env.get(&t.text).cloned()
}

/// Builds the local type environment for one function: parameter
/// bindings from the signature, `let x: T` annotations, and
/// `let x = Type::ctor(..)` constructor calls. Later bindings shadow
/// earlier ones, approximating scope.
fn type_env(node: &FnNode, code: &[Tok]) -> BTreeMap<String, String> {
    let mut env = BTreeMap::new();
    // Parameters: the list between the first `(` at generic depth 0
    // after the `fn` keyword and its matching closer.
    let mut k = node.sig.start;
    while k < node.sig.end && !code[k].is_ident("fn") {
        k += 1;
    }
    let mut angle = 0i64;
    let mut open = None;
    while k < node.sig.end {
        let t = &code[k];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') && angle > 0 {
            angle -= 1;
        } else if t.is_punct('(') && angle == 0 {
            open = Some(k);
            break;
        }
        k += 1;
    }
    if let Some(open) = open {
        let close = close_of(code, open, node.sig.end, '(', ')');
        for (name, ty) in bindings(code, open + 1..close.saturating_sub(1).max(open + 1)) {
            env.insert(name, ty);
        }
    }
    // `let` bindings in the body.
    let mut i = node.body.start;
    while i < node.body.end {
        if code[i].is_ident("let") {
            let mut j = i + 1;
            if code.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if let Some(nm) = code.get(j).filter(|t| t.kind == TokKind::Ident) {
                if code.get(j + 1).is_some_and(|t| t.is_punct(':')) {
                    // `let x: T = ..` — the type runs to the `=` / `;`.
                    let mut k = j + 2;
                    let (mut depth, mut angle) = (0i64, 0i64);
                    while k < node.body.end {
                        let t = &code[k];
                        if t.is_punct('(') || t.is_punct('[') {
                            depth += 1;
                        } else if t.is_punct(')') || t.is_punct(']') {
                            depth -= 1;
                        } else if t.is_punct('<') {
                            angle += 1;
                        } else if t.is_punct('>') && angle > 0 {
                            angle -= 1;
                        } else if (t.is_punct('=') || t.is_punct(';')) && depth == 0 && angle == 0 {
                            break;
                        }
                        k += 1;
                    }
                    if let Some(ty) = last_type_ident(code, j + 2..k) {
                        env.insert(nm.text.clone(), ty);
                    }
                } else if code.get(j + 1).is_some_and(|t| t.is_punct('='))
                    && code.get(j + 3).is_some_and(|t| t.is_punct(':'))
                    && code.get(j + 4).is_some_and(|t| t.is_punct(':'))
                {
                    // `let x = Type::ctor(..)` — constructor heuristic;
                    // a lowercase qualifier is a module, not a type.
                    if let Some(t0) = code.get(j + 2).filter(|t| {
                        t.kind == TokKind::Ident
                            && t.text.chars().next().is_some_and(char::is_uppercase)
                    }) {
                        env.insert(nm.text.clone(), t0.text.clone());
                    }
                }
            }
            i = j;
        }
        i += 1;
    }
    env
}

/// Splits `code[r]` at top-level commas and yields the `name: Type`
/// binding of each segment — shared by fn-parameter lists and struct
/// field lists.
fn bindings(code: &[Tok], r: Range<usize>) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let (mut depth, mut angle) = (0i64, 0i64);
    let mut seg = r.start;
    for k in r.start..=r.end {
        let split = k == r.end || {
            let t = &code[k];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            } else if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && angle > 0 {
                angle -= 1;
            }
            t.is_punct(',') && depth == 0 && angle == 0
        };
        if split {
            if let Some(b) = binding_of(code, seg..k) {
                out.push(b);
            }
            seg = k + 1;
        }
    }
    out
}

/// `name: some::path::Type<..>` → `(name, Type)`. The first depth-0
/// colon preceded by an identifier binds; `self` receivers, patterns,
/// and attribute segments yield nothing.
fn binding_of(code: &[Tok], r: Range<usize>) -> Option<(String, String)> {
    let (mut depth, mut angle) = (0i64, 0i64);
    for k in r.clone() {
        let t = &code[k];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') && angle > 0 {
            angle -= 1;
        } else if t.is_punct(':') && depth == 0 && angle == 0 {
            if code.get(k + 1).is_some_and(|n| n.is_punct(':')) {
                return None; // a `path::` before any binding colon
            }
            let name = k
                .checked_sub(1)
                .filter(|&p| p >= r.start)
                .map(|p| &code[p])
                .filter(|t| t.kind == TokKind::Ident && !t.is_ident("self"))?;
            let ty = last_type_ident(code, k + 1..r.end)?;
            return Some((name.text.clone(), ty));
        }
    }
    None
}

/// The outermost type constructor of a type expression: the last
/// identifier at angle/paren/bracket depth 0, skipping sigil keywords.
/// `&'a mut Vec<Request>` → `Vec`; `&mut dyn Clocked` → `Clocked`;
/// `foo::Bar` → `Bar`.
fn last_type_ident(code: &[Tok], r: Range<usize>) -> Option<String> {
    let (mut depth, mut angle) = (0i64, 0i64);
    let mut name = None;
    for t in code.get(r)? {
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            if angle > 0 {
                angle -= 1;
            }
        } else if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if angle == 0
            && depth == 0
            && t.kind == TokKind::Ident
            && !matches!(
                t.text.as_str(),
                "dyn" | "mut" | "ref" | "impl" | "const" | "pub" | "crate" | "super" | "self"
            )
        {
            name = Some(t.text.clone());
        }
    }
    name
}

/// Index one past the matching closer for the opener at `open` (or
/// `end`).
fn close_of(code: &[Tok], open: usize, end: usize, o: char, c: char) -> usize {
    let mut depth = 0i64;
    let mut k = open;
    while k < end {
        let t = &code[k];
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
        k += 1;
    }
    end
}

/// Method names so ubiquitous in std that an edge from an *unknown*
/// receiver would be noise: a workspace method that happens to share
/// the name (`map`, `iter`, …) is almost never the callee. Calls whose
/// receiver types to a workspace declaration still resolve to such
/// methods. Sorted for binary search (asserted by a test).
const STD_METHOD_NAMES: &[&str] = &[
    "abs",
    "all",
    "and_then",
    "any",
    "append",
    "as_bytes",
    "as_deref",
    "as_mut",
    "as_mut_slice",
    "as_ref",
    "as_slice",
    "as_str",
    "binary_search",
    "binary_search_by",
    "binary_search_by_key",
    "borrow",
    "borrow_mut",
    "by_ref",
    "bytes",
    "ceil",
    "chain",
    "char_indices",
    "chars",
    "checked_add",
    "checked_div",
    "checked_mul",
    "checked_sub",
    "chunks",
    "clamp",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "concat",
    "contains",
    "contains_key",
    "copied",
    "count",
    "count_ones",
    "dedup",
    "div_euclid",
    "drain",
    "ends_with",
    "entry",
    "enumerate",
    "eq",
    "err",
    "expect",
    "extend",
    "fill",
    "filter",
    "filter_map",
    "find",
    "flat_map",
    "flatten",
    "floor",
    "flush",
    "fmt",
    "fold",
    "get",
    "get_mut",
    "get_or_insert_with",
    "hash",
    "insert",
    "into_iter",
    "is_empty",
    "is_err",
    "is_finite",
    "is_nan",
    "is_none",
    "is_ok",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "leading_zeros",
    "len",
    "lines",
    "ln",
    "lock",
    "log2",
    "map",
    "map_or",
    "map_or_else",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "ne",
    "next",
    "ok",
    "ok_or",
    "ok_or_else",
    "or_default",
    "or_else",
    "or_insert",
    "or_insert_with",
    "parse",
    "partial_cmp",
    "partition_point",
    "peek",
    "peekable",
    "pop",
    "position",
    "pow",
    "powf",
    "powi",
    "push",
    "push_str",
    "read",
    "read_line",
    "read_to_string",
    "rem_euclid",
    "remove",
    "repeat",
    "replace",
    "reserve",
    "resize",
    "retain",
    "rev",
    "rotate_left",
    "rotate_right",
    "round",
    "saturating_add",
    "saturating_mul",
    "saturating_sub",
    "signum",
    "skip",
    "skip_while",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "split",
    "split_at",
    "split_first",
    "split_last",
    "split_whitespace",
    "splitn",
    "sqrt",
    "starts_with",
    "step_by",
    "strip_prefix",
    "strip_suffix",
    "sum",
    "swap",
    "take",
    "take_while",
    "to_ascii_lowercase",
    "to_be_bytes",
    "to_le_bytes",
    "to_lowercase",
    "to_owned",
    "to_string",
    "to_uppercase",
    "to_vec",
    "trailing_zeros",
    "trim",
    "trim_end",
    "trim_start",
    "truncate",
    "try_into",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "windows",
    "wrapping_add",
    "wrapping_mul",
    "wrapping_sub",
    "write",
    "write_all",
    "write_fmt",
    "write_str",
    "zip",
];

fn is_std_method(name: &str) -> bool {
    STD_METHOD_NAMES.binary_search(&name).is_ok()
}

/// Recursively collects `fn` items into graph nodes. `owner` is the
/// enclosing impl or trait: the method's self type and the trait it
/// belongs to.
fn collect_fns(
    g: &mut CallGraph,
    path: &str,
    file_idx: usize,
    ctx: &FileContext,
    items: &[Item],
    prefix: &[String],
    owner: (Option<&str>, Option<&str>),
) {
    let (self_type, of_trait) = owner;
    for it in items {
        match it.kind {
            ItemKind::Fn => {
                let Some(body) = it.body.clone() else {
                    continue; // trait-method signature: no code to scan
                };
                // Skip test functions entirely: they may panic/allocate
                // at will and must not create reachability.
                if ctx.is_test.get(it.toks.start).copied().unwrap_or(false) {
                    continue;
                }
                let mut q = prefix.join("::");
                if let Some(ty) = self_type {
                    q.push_str("::");
                    q.push_str(ty);
                }
                q.push_str("::");
                q.push_str(&it.name);
                let id = g.nodes.len();
                g.nodes.push(FnNode {
                    id,
                    name: it.name.clone(),
                    qname: q,
                    file: path.to_owned(),
                    file_idx,
                    line: it.line,
                    is_hot: ctx.is_hot.get(body.start).copied().unwrap_or(false)
                        || ctx.is_hot.get(it.toks.start).copied().unwrap_or(false),
                    sig: it.toks.start..body.start,
                    body,
                    self_type: self_type.map(str::to_owned),
                    of_trait: of_trait.map(str::to_owned),
                });
            }
            ItemKind::Mod => {
                let mut p = prefix.to_vec();
                if it.name != "?" {
                    p.push(it.name.clone());
                }
                collect_fns(g, path, file_idx, ctx, &it.children, &p, owner);
            }
            ItemKind::Impl => {
                let ty = if it.name == "?" {
                    None
                } else {
                    Some(it.name.as_str())
                };
                let owner = (ty, it.of_trait.as_deref());
                collect_fns(g, path, file_idx, ctx, &it.children, prefix, owner);
            }
            ItemKind::Trait => {
                // Default method bodies are real code; qualify by trait.
                let ty = if it.name == "?" {
                    None
                } else {
                    Some(it.name.as_str())
                };
                collect_fns(g, path, file_idx, ctx, &it.children, prefix, (ty, ty));
            }
            ItemKind::Struct | ItemKind::Use => {}
        }
    }
}

/// `crates/dram/src/scheduler/mod.rs` → `mod`; `src/lib.rs` → `lib`.
fn file_stem(path: &str) -> String {
    path.rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".rs")
        .to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use crate::parser::parse_items;

    fn build(files: &[(&str, &str)]) -> CallGraph {
        let loaded: Vec<(String, FileContext, Vec<Item>)> = files
            .iter()
            .map(|(p, s)| {
                let ctx = FileContext::build(p, tokenize(s));
                let items = parse_items(&ctx.code);
                ((*p).to_owned(), ctx, items)
            })
            .collect();
        CallGraph::build(&loaded, &CrateDeps::default())
    }

    fn edge(g: &CallGraph, from: &str, to: &str) -> bool {
        let f = g.find(from).expect("from node");
        let t = g.find(to).expect("to node");
        g.edges[f.id].contains(&t.id)
    }

    #[test]
    fn std_method_names_are_sorted_for_binary_search() {
        assert!(STD_METHOD_NAMES.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn free_method_and_qualified_calls_resolve() {
        let g = build(&[(
            "crates/a/src/lib.rs",
            "pub struct S;
             impl S {
                 pub fn method(&self) { helper(); self.other(); }
                 pub fn other(&self) {}
             }
             pub fn helper() {}
             pub fn entry(s: &S) { s.method(); S::other(&s); }",
        )]);
        assert!(edge(&g, "a::S::method", "a::helper"));
        assert!(edge(&g, "a::S::method", "a::S::other"), "self.other()");
        assert!(edge(&g, "a::entry", "a::S::method"), "typed receiver");
        assert!(edge(&g, "a::entry", "a::S::other"), "Type::method");
        assert!(!edge(&g, "a::helper", "a::entry"), "no reverse edges");
    }

    #[test]
    fn cross_file_calls_resolve_and_qnames_carry_stems() {
        let g = build(&[
            (
                "crates/a/src/util.rs",
                "pub fn shared() { crate::deep::target(); }",
            ),
            (
                "crates/b/src/lib.rs",
                "mod deep { pub fn target() {} }
                 pub fn go() { shared(); }",
            ),
        ]);
        assert!(edge(&g, "b::go", "a::util::shared"));
        assert!(edge(&g, "a::util::shared", "b::deep::target"));
    }

    #[test]
    fn field_receivers_resolve_through_struct_decls() {
        // `self.agent.observe(..)` must reach Agent's observe only —
        // not every workspace method of that name.
        let g = build(&[
            (
                "crates/a/src/lib.rs",
                "pub struct Sched { agent: Agent }
                 impl Sched { pub fn go(&mut self) { self.agent.observe(1); } }
                 pub struct Agent;
                 impl Agent { pub fn observe(&mut self, x: u32) { let _ = x; } }",
            ),
            (
                "crates/b/src/lib.rs",
                "pub struct Other;
                 impl Other { pub fn observe(&mut self, x: u32) { let _ = x; } }",
            ),
        ]);
        assert!(edge(&g, "a::Sched::go", "a::Agent::observe"));
        assert!(!edge(&g, "a::Sched::go", "b::Other::observe"));
    }

    #[test]
    fn std_names_on_unknown_receivers_make_no_edges() {
        let g = build(&[(
            "crates/a/src/lib.rs",
            "pub struct W;
             impl W {
                 pub fn map(&self) {}
                 pub fn iter(&self) {}
             }
             pub fn go(xs: &[u32]) -> usize { xs.iter().map(|x| x).count() }",
        )]);
        let go = g.find("a::go").expect("go").id;
        assert!(g.edges[go].is_empty(), "std iterator names stay std");
    }

    #[test]
    fn known_type_without_the_method_gets_no_edge() {
        // `p.clone()` on a workspace type without a `clone` method is a
        // derived impl — not a call to some other type's `clone`.
        let g = build(&[(
            "crates/a/src/lib.rs",
            "pub struct P;
             impl P { pub fn real(&self) {} }
             pub struct Q;
             impl Q { pub fn fire(&self) {} }
             pub fn go(p: &P) { let _ = p.clone(); p.real(); }",
        )]);
        assert!(edge(&g, "a::go", "a::P::real"));
        let go = g.find("a::go").expect("go").id;
        let fire = g.find("a::Q::fire").expect("fire").id;
        assert!(!g.edges[go].contains(&fire));
    }

    #[test]
    fn trait_receivers_fan_out_to_implementors() {
        let g = build(&[(
            "crates/a/src/lib.rs",
            "pub trait Clocked { fn tick(&mut self); fn warm(&mut self) { self.tick(); } }
             pub struct A; impl Clocked for A { fn tick(&mut self) {} }
             pub struct B; impl Clocked for B { fn tick(&mut self) {} }
             pub fn drive(c: &mut dyn Clocked) { c.tick(); }",
        )]);
        assert!(edge(&g, "a::drive", "a::A::tick"));
        assert!(edge(&g, "a::drive", "a::B::tick"));
        // A trait-default body reaches every implementor too.
        assert!(edge(&g, "a::Clocked::warm", "a::A::tick"));
    }

    #[test]
    fn let_bindings_type_their_receivers() {
        let g = build(&[
            (
                "crates/a/src/lib.rs",
                "pub struct Queue;
                 impl Queue {
                     pub fn new() -> Queue { Queue }
                     pub fn req(&self, h: usize) { let _ = h; }
                 }
                 pub fn go() { let q = Queue::new(); q.req(3); }
                 pub fn annotated() { let q2: Queue = make(); q2.req(4); }
                 pub fn make() -> Queue { Queue }",
            ),
            (
                "crates/b/src/lib.rs",
                "pub struct R;
                 impl R { pub fn req(&self, h: usize) { let _ = h; } }",
            ),
        ]);
        assert!(edge(&g, "a::go", "a::Queue::new"));
        assert!(edge(&g, "a::go", "a::Queue::req"));
        assert!(edge(&g, "a::annotated", "a::Queue::req"));
        assert!(!edge(&g, "a::go", "b::R::req"));
    }

    #[test]
    fn test_functions_are_not_nodes() {
        let g = build(&[(
            "crates/a/src/lib.rs",
            "pub fn live() {}
             #[cfg(test)]
             mod tests { #[test] fn case() { live(); } }",
        )]);
        assert_eq!(g.nodes.len(), 1);
        assert_eq!(g.nodes[0].qname, "a::live");
    }

    #[test]
    fn hot_markers_reach_graph_nodes() {
        let g = build(&[(
            "crates/a/src/lib.rs",
            "// lint: hot-path\nfn hot() {}\nfn cold() {}",
        )]);
        assert!(g.find("a::hot").expect("hot").is_hot);
        assert!(!g.find("a::cold").expect("cold").is_hot);
    }

    #[test]
    fn bfs_witness_chains_are_shortest_and_deterministic() {
        let g = build(&[(
            "crates/a/src/lib.rs",
            "pub fn entry() { mid(); deep1(); }
             fn mid() { deep1(); }
             fn deep1() { deep2(); }
             fn deep2() {}",
        )]);
        let entry = g.find("a::entry").expect("entry").id;
        let parents = g.bfs_parents(&[entry]);
        let d2 = g.find("a::deep2").expect("deep2").id;
        let chain = g.witness(&parents, d2);
        // Shortest path skips `mid`: entry -> deep1 -> deep2.
        assert_eq!(chain, ["a::entry", "a::deep1", "a::deep2"]);
        for _ in 0..8 {
            assert_eq!(g.witness(&g.bfs_parents(&[entry]), d2), chain);
        }
    }

    #[test]
    fn macro_invocations_do_not_create_edges() {
        let g = build(&[(
            "crates/a/src/lib.rs",
            "pub fn print() {}
             pub fn go() { println!(\"x\"); }",
        )]);
        let go = g.find("a::go").expect("go").id;
        assert!(g.edges[go].is_empty(), "println! is not a call to print");
    }
}
