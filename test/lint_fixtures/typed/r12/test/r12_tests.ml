let check () = Lint_fixtures_r12.R12_exports.tested 0
