package vm_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/big"
	"testing"

	"pathmark/internal/feistel"
	"pathmark/internal/vm"
	"pathmark/internal/wm"
	"pathmark/internal/workloads"
)

// dumpGolden is hex(sha256(vm.Dump(p))) for every program of
// dumpCorpus. The canonical form is what program digests, job IDs and
// fleet manifests are made from, so a renderer change that moves a
// single byte fails here.
var dumpGolden = map[string]string{
	"gcd":                      "8e13cddf84711d371bc722376ede191783314a4e4ed2c7b9f6f1fbf92d79e874",
	"gcd/marked":               "366e75888c846c994abaafc1d9db375463d18f2f5e45cce47f37ed7f1f8b7d64",
	"caffeinemark":             "6f2bb754acca317d39a7eddcdf05c74465750f53ef618405b49a81d03dd87c4e",
	"caffeinemark/marked":      "0de0134a9e2ecd4a4f58ca41dccdf1324b290fe504f2fad759fc90195aa489be",
	"minicalc":                 "fd74aedfb1b4550c725583293603dcb6a497eaf6cd2f8b6f337513e77024b285",
	"minicalc/marked":          "b8e4ffbe84f4668cc86bd48d7700a480d86ad757e0f40d8773feff4c1db1858c",
	"jesslike-1":               "e207d2e28148a8f4e640a252d5274787cd96bb9aba59a6cc81c804f11de5bb48",
	"jesslike-1/marked":        "1516b6925bfab8f7339b2a4e2d4c525ad65b5ceb40835e2cd812fa3d6b29a666",
	"jesslike-2":               "f4886feed36f2fcb47ab9faf435f1e5da4e282b65e2a97af44d337db580d394d",
	"jesslike-2/marked":        "3fb1a2239e650b341c62897c20892e301f42fba9c367e24833e57b160b74f028",
	"jesslike-3":               "ec5b964b4e5b3360709241fe21bc233c52d354fe644c42f3ac2f3cb91f397be1",
	"jesslike-3/marked":        "ae2c7356225e8df1250b4ae97e69264b1f3c2faaa1326a3121162ff2df0731ca",
	"caffeinemark/marked64":    "545a6678db5a38a20555b0931e2d79bc0848224fb4db9fbf3bdcc209c8e0e298",
	"jesslike-60x150/batch128": "01d1d8745848f857fe8992fb3d55855e66d27bd682285c2809ea660e21dc8bf8",
	"random-0":                 "189794da6d97ed74556813636ce6930219b1985ffe861fb8f5bf3a76e0d29bb6",
	"random-1":                 "dc3e1a73d91450c183779dfb0b608cffa3b4a6529b6dcc11c354ba30639b1774",
	"random-2":                 "900dd2469597e2301924ec3674c3826bce485f1a1569a54cd6c851f84573d541",
	"random-3":                 "889170f7013b9fd48b9d6f8b00011a80cead169d1af2ac9da9afb175374fd95f",
	"random-4":                 "a5351869a9df9a563b1b86e0406d4f1e4e30ce27ae27f53ac3df49b02e53def8",
	"random-5":                 "5bdd40541dcffd53e45647b3245d5671c0f9404c9edf23a0c4f1ea45c9f7f668",
	"random-6":                 "2880b860176f1c5cfa07ff9ee4e1c13117d2ed76a410c7160a1487c6378e40d8",
	"random-7":                 "d8a9c9fc2ab12b8c6681e96f8c2fdc275699ec0b648ce85d199b996049c8b511",
	"random-8":                 "af1801fa720915c6768117c92684fe68ea0cc56738e89a28c74edeaa15b3ed2c",
	"random-9":                 "6460ee3a34c43e38b7ade68ebb2f47d05ea15764b595a9d8d6592fbb6d769704",
	"random-10":                "35d47f73c4513b71e0b7af8100646090c1147f5fb942193bb7ef6295e081283f",
	"random-11":                "caa375efc0fb4af4ce2c73ebba795b0ddf52f2e87d19faee3b364ee8755f2239",
	"random-12":                "27a7f3867dbd91ef2952b44742b9cc683a50333182a39cba7b59e8f6caa23023",
	"random-13":                "ced27327c9f9cffbea05e0f46f3b41849f169f5d851f5dc243ce41b650a756a5",
	"random-14":                "2e4d01f151f40d32dd38dc4443e49af5eccc79dc8e62f50940dd89adb4380ea4",
	"random-15":                "c22d3d80962510f87870bd986b6928c1f48b013f0b92130df06307f0d452e0f3",
	"random-16":                "2132184a45448d5653937e1d4dfd6d99b6f8e05a41787c0f2ce8a3088c573e9f",
	"random-17":                "f55d4d056c363a8f313574851ce12ef5bc767257afa8740c0c23f46f5a305acc",
	"random-18":                "8f625fd7a4b0cb5361ff7cfcc8e401392d3ec637f0b5728faefad4347b125291",
	"random-19":                "b95bcd72a8aee498723737ef88d39f4339f695ecffc184fe2d4abb3a56f9620e",
	"random-20":                "2119a5dbae63e9ccbc460a37df0ded1b14b1bee449e12906b0a4396c3a02b4bc",
	"random-21":                "3182b1db7b3cf6f83ba2355cf9809ec6c231a85df9581e61cea1aa6ff90fd422",
	"random-22":                "758092cbb95a28e4161f0abf1634afe96bdb1f79b9c7952e86791cfb0aa1ca91",
	"random-23":                "b80f21e7c9c07193d77c2ac58ed6c4b05b1f1171e50c34c64c5bed90846efe55",
	"random-24":                "a7eb0a93f430736d346292f892ddb3870a2ff82e711363c3aa4b6fb7c49edf39",
	"random-25":                "b1370b17dbe9530c8350607289870cec1afa78e4b23734bd610459d8bfbcdfc0",
	"random-26":                "8b10fa4ec75196d272379e8356ef865b03aefae31042ec01bc6f0d4829e88ba6",
	"random-27":                "3c08ef2e42e3b59ff66f2df66fabfedce067bc7c03f89631cecca3bdc518a207",
	"random-28":                "941e025ae9204f21c5392c0e279b8c320faedaaddbfd98439f708b03199ec968",
	"random-29":                "c7a183218c1a9081e1d16b1a74c3b4edf2a98688dcf2b63003c7fc8f3e087105",
	"random-30":                "1ea6d0d85c5ac5049a71b7d16638c16d3441890b1ddf451e2e8a8b18387d57a5",
	"random-31":                "de436b7d58841c70e169963c60144a0c1ce1ce18fb740b00013fe228beb3c3d0",
	"random-32":                "8ce4bfd65561a76339218a5c213e27e690f516ccb71c9a056bc9f40bd94704f5",
	"random-33":                "edd922ce70356a060916ea3594dc7c5108d4fd1823bbce21fdb1357bbdf03467",
	"random-34":                "6a74c18f0ecd790ee2ed2641554850dfe225a27e355c0870c559731ddfe299d8",
	"random-35":                "cf71822e873c9cb224b6c0374c95752d68054fb7b2c3f54b434274d9114bb79b",
	"random-36":                "6b17618a7f77bad4b4b58adf0855da1e66f02e75c0c80dc083b78ff4a089fd13",
	"random-37":                "ccb4d5ea126a6901cead579032afb762f0dfb4fe92fff0c496d1ea472db97d36",
	"random-38":                "90b422283170dd779f8757bec29d272a9e9b2a381d7cdb129db6f83015da6da1",
	"random-39":                "d26f0475b90ec16d36bc45a1be6d4b454a51b5dec73866a8f5b9786b7dae8da3",
	"random-40":                "19bed6218e01ba957b465a90aafe06e0966e0094e1f935c44f885f0dd9af4db1",
	"random-41":                "1e08c953e51d9e7de2a06233422b421e3a358ad2f1200a3e388c062116249c24",
	"random-42":                "c05dff0767819727dd7a7485bbb0c9df17e643ebb716471375b30db54e69c3f9",
	"random-43":                "dbf28053bead58df15b209238a4ce37dfba425f5ed6b5dd1feae7306e37ae6a7",
	"random-44":                "3478687225d28c56b8834715d9955e7259b3763ad625eea7a98dfd26dd0be718",
	"random-45":                "77cf7d31850d9fb33dd433b14caa2a3095245a9394d183be803b8292653d8b16",
	"random-46":                "44f3241b41187c3388f69dd3d43fca5231ff0850e876575336280a0e6bf63023",
	"random-47":                "96e24f35f4fe1238b237a6712b74f496a265369faadd0c03fae5b8704cb95f80",
	"random-48":                "dee557c51be59d49132668becadfc9bf52bfb6b4a9fa86c9403d197b04b417b4",
	"random-49":                "fc781af790fe35061ad8f815607983bc6bfe5e23a00cff060ac811ac652fda82",
}

// dumpCorpus is the named workloads, three Jess-like seeds, an embedded
// copy of each, the two benchShapeCopies, and RandomProgram seeds 0-49.
func dumpCorpus(t testing.TB) []traceCase {
	t.Helper()
	type host struct {
		traceCase
		input []int64
	}
	hosts := []host{
		{traceCase{"gcd", workloads.GCD()}, equivInput},
		{traceCase{"caffeinemark", workloads.CaffeineMark()}, equivInput},
		{traceCase{"minicalc", workloads.MiniCalc()}, workloads.CalcCountdown(12)},
	}
	for seed := int64(1); seed <= 3; seed++ {
		hosts = append(hosts, host{traceCase{fmt.Sprintf("jesslike-%d", seed),
			workloads.JessLike(workloads.JessLikeOptions{Seed: seed, Methods: 30, BlockSize: 80})}, equivInput})
	}
	var out []traceCase
	for i, h := range hosts {
		key, err := wm.NewKey(h.input, feistel.KeyFromUint64(0x5eed, 0xfeed), 64)
		if err != nil {
			t.Fatal(err)
		}
		marked, _, err := wm.Embed(h.prog, wm.RandomWatermark(64, uint64(i)+1), key,
			wm.EmbedOptions{Seed: int64(i)})
		if err != nil {
			t.Fatalf("%s: embed: %v", h.name, err)
		}
		out = append(out, h.traceCase, traceCase{h.name + "/marked", marked})
	}
	out = append(out, benchShapeCopies(t)...)
	for seed := int64(0); seed < 50; seed++ {
		out = append(out, traceCase{fmt.Sprintf("random-%d", seed),
			workloads.RandomProgram(workloads.RandProgOptions{Seed: seed})})
	}
	return out
}

// benchShapeCopies are the perfbench embed shapes (§5.1's piece counts
// under a 128-bit mark), where a method takes many pieces: a 64-piece
// CaffeineMark-like copy, and a 128-piece copy of a 60×150 Jess-like
// host made by EmbedBatch over a shared host analysis.
func benchShapeCopies(t testing.TB) []traceCase {
	t.Helper()
	key, err := wm.NewKey(nil, feistel.KeyFromUint64(0xbe7c, 0x5a9e), 128)
	if err != nil {
		t.Fatal(err)
	}
	caffeine, _, err := wm.Embed(workloads.CaffeineMark(), wm.RandomWatermark(128, 64), key,
		wm.EmbedOptions{Pieces: 64, Seed: 3})
	if err != nil {
		t.Fatalf("caffeinemark/marked64: embed: %v", err)
	}
	jess := workloads.JessLike(workloads.JessLikeOptions{Seed: 5, Methods: 60, BlockSize: 150})
	copies, err := wm.EmbedBatch(jess, []*big.Int{wm.RandomWatermark(128, 1), wm.RandomWatermark(128, 2)}, key,
		wm.BatchOptions{EmbedOptions: wm.EmbedOptions{Pieces: 128, Seed: 1}})
	if err != nil {
		t.Fatalf("jesslike-60x150/batch128: embed: %v", err)
	}
	return []traceCase{
		{"caffeinemark/marked64", caffeine},
		{"jesslike-60x150/batch128", copies[1].Program},
	}
}

// TestDumpGolden pins the canonical disassembly byte for byte.
func TestDumpGolden(t *testing.T) {
	corpus := dumpCorpus(t)
	for _, c := range corpus {
		sum := sha256.Sum256([]byte(vm.Dump(c.prog)))
		got := hex.EncodeToString(sum[:])
		if want, ok := dumpGolden[c.name]; !ok || got != want {
			t.Errorf("%s: sha256(Dump) = %s, want %s", c.name, got, want)
		}
	}
	if len(corpus) != len(dumpGolden) {
		t.Errorf("corpus has %d programs, golden table %d", len(corpus), len(dumpGolden))
	}
}
